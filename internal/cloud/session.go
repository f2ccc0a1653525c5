package cloud

import "fmt"

// SessionKey identifies one transport session (a 5-tuple in the real system).
type SessionKey struct {
	SrcIP   string
	SrcPort uint16
	DstIP   string
	DstPort uint16
	Proto   uint8
}

// String renders the key in 5-tuple form.
func (k SessionKey) String() string {
	return fmt.Sprintf("%s:%d->%s:%d/%d", k.SrcIP, k.SrcPort, k.DstIP, k.DstPort, k.Proto)
}
