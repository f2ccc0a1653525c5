//go:build linux

package main

import (
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// pacer wakes the open loop's workers when a request is due.
//
// Neither of the obvious ways is good enough at a millisecond between
// requests.
// The Go runtime rounds a timer up to the next millisecond when every P is
// idle, so time.Sleep is late by about a millisecond. A raw nanosleep is
// precise but keeps the worker's P in a system call, and goroutines of the
// gateway queued on that P then wait until sysmon takes it back, up to
// 10 ms. A timerfd read goes through the runtime's network poller: the
// worker parks without a P and the kernel's high-resolution timer makes the
// descriptor readable on time.
type pacer struct {
	fd   uintptr
	file *os.File
	buf  [8]byte
}

type itimerspec struct{ interval, value syscall.Timespec }

const (
	clockMonotonic = 1
	tfdNonblock    = 0x800
	tfdCloexec     = 0x80000
)

func newPacer() (*pacer, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &pacer{fd: fd, file: os.NewFile(fd, "timerfd")}, nil
}

// sleepUntil parks the calling goroutine until t.
func (p *pacer) sleepUntil(t time.Time) error {
	d := time.Until(t)
	if d <= 0 {
		return nil
	}
	spec := itimerspec{value: syscall.NsecToTimespec(int64(d))}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, p.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	if _, err := p.file.Read(p.buf[:]); err != nil {
		return fmt.Errorf("timerfd read: %w", err)
	}
	return nil
}

func (p *pacer) close() { p.file.Close() }
