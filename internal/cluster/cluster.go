// Package cluster models the Kubernetes-like user clusters the meshes serve:
// worker nodes, pods, services, and an API server that publishes lifecycle
// events the control planes subscribe to. It captures exactly what the
// paper's experiments depend on — counts, placement, resource requests, and
// the event stream driving configuration pushes — without a container
// runtime.
package cluster

import (
	"fmt"
	"net/netip"
	"slices"
	"sort"

	"canalmesh/internal/cloud"
	"canalmesh/internal/netmodel"
)

// Resources is a pod's resource request: CPU in millicores and memory in MB.
type Resources struct {
	MilliCPU int
	MemMB    int
}

// Add returns a + b.
func (a Resources) Add(b Resources) Resources {
	return Resources{MilliCPU: a.MilliCPU + b.MilliCPU, MemMB: a.MemMB + b.MemMB}
}

// Node is a worker node in a user cluster.
type Node struct {
	Name  string
	Place netmodel.Place
	Alloc Resources // allocatable capacity
	pods  []*Pod
}

// Pods returns the pods scheduled on the node.
func (n *Node) Pods() []*Pod { return n.pods }

// Used returns the summed resource requests of pods on the node, including
// any injected sidecars.
func (n *Node) Used() Resources {
	var u Resources
	for _, p := range n.pods {
		u = u.Add(p.App)
		u = u.Add(p.Sidecar)
	}
	return u
}

// Pod is one instance of a service.
type Pod struct {
	Name    string
	Service string
	Node    *Node
	IP      netip.Addr
	App     Resources
	Sidecar Resources // zero unless a per-pod sidecar is injected
}

// Service groups pods by name and carries the destination port.
type Service struct {
	Name string
	Port uint16
	// L7Rules counts the number of routing/security rules configured for
	// this service; it drives configuration sizes in the control planes.
	L7Rules int
	pods    []*Pod
}

// EventKind enumerates API-server events.
type EventKind int

const (
	EventPodAdded EventKind = iota
	EventPodRemoved
	EventServiceAdded
	EventRouteUpdated
)

// String returns the event kind's name.
func (k EventKind) String() string {
	switch k {
	case EventPodAdded:
		return "PodAdded"
	case EventPodRemoved:
		return "PodRemoved"
	case EventServiceAdded:
		return "ServiceAdded"
	case EventRouteUpdated:
		return "RouteUpdated"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one API-server lifecycle event.
type Event struct {
	Kind    EventKind
	Pod     *Pod
	Service *Service
}

// Cluster is a single tenant's K8s-like cluster.
type Cluster struct {
	Name   string
	Tenant *cloud.Tenant

	nodes    []*Node
	services map[string]*Service
	pods     map[string]*Pod
	podSeq   int
	watchers []func(Event)
}

// New creates an empty cluster for a tenant.
func New(name string, tenant *cloud.Tenant) *Cluster {
	return &Cluster{
		Name:     name,
		Tenant:   tenant,
		services: make(map[string]*Service),
		pods:     make(map[string]*Pod),
	}
}

// AddNode registers a worker node placed in the given region/AZ.
func (c *Cluster) AddNode(name, region, az string, alloc Resources) *Node {
	n := &Node{
		Name:  name,
		Place: netmodel.Place{Region: region, AZ: az, Node: c.Name + "/" + name},
		Alloc: alloc,
	}
	c.nodes = append(c.nodes, n)
	return n
}

// Nodes returns the cluster's nodes.
func (c *Cluster) Nodes() []*Node { return c.nodes }

// AddService registers a service. Adding an existing name returns the
// existing service.
func (c *Cluster) AddService(name string, port uint16, l7Rules int) *Service {
	if s, ok := c.services[name]; ok {
		return s
	}
	s := &Service{Name: name, Port: port, L7Rules: l7Rules}
	c.services[name] = s
	c.notify(Event{Kind: EventServiceAdded, Service: s})
	return s
}

// Service returns the named service, or nil.
func (c *Cluster) Service(name string) *Service { return c.services[name] }

// Services returns all services sorted by name.
func (c *Cluster) Services() []*Service {
	out := make([]*Service, 0, len(c.services))
	for _, s := range c.services {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// AddPod schedules a pod of a service onto a node, allocating a VPC IP.
// It returns an error if the service is unknown, the node is full, or the
// VPC is exhausted.
func (c *Cluster) AddPod(service string, node *Node, app Resources) (*Pod, error) {
	svc, ok := c.services[service]
	if !ok {
		return nil, fmt.Errorf("cluster %s: unknown service %q", c.Name, service)
	}
	used := node.Used()
	if used.MilliCPU+app.MilliCPU > node.Alloc.MilliCPU || used.MemMB+app.MemMB > node.Alloc.MemMB {
		return nil, fmt.Errorf("cluster %s: node %s cannot fit pod (used %+v, alloc %+v)", c.Name, node.Name, used, node.Alloc)
	}
	ip, err := c.Tenant.VPC.AllocIP()
	if err != nil {
		return nil, err
	}
	c.podSeq++
	p := &Pod{
		Name:    fmt.Sprintf("%s-%d", svc.Name, c.podSeq),
		Service: svc.Name,
		Node:    node,
		IP:      ip,
		App:     app,
	}
	node.pods = append(node.pods, p)
	svc.pods = append(svc.pods, p)
	c.pods[p.Name] = p
	c.notify(Event{Kind: EventPodAdded, Pod: p, Service: svc})
	return p, nil
}

// RemovePod deletes a pod by name.
func (c *Cluster) RemovePod(name string) error {
	p, ok := c.pods[name]
	if !ok {
		return fmt.Errorf("cluster %s: unknown pod %q", c.Name, name)
	}
	delete(c.pods, name)
	for i, np := range p.Node.pods {
		if np == p {
			p.Node.pods = append(p.Node.pods[:i], p.Node.pods[i+1:]...)
			break
		}
	}
	svc := c.services[p.Service]
	svc.pods = slices.DeleteFunc(svc.pods, func(sp *Pod) bool { return sp == p })
	c.notify(Event{Kind: EventPodRemoved, Pod: p, Service: svc})
	return nil
}

// UpdateRoutes records a routing-policy change on a service and publishes the
// event that triggers control-plane pushes.
func (c *Cluster) UpdateRoutes(service string, l7Rules int) error {
	svc, ok := c.services[service]
	if !ok {
		return fmt.Errorf("cluster %s: unknown service %q", c.Name, service)
	}
	svc.L7Rules = l7Rules
	c.notify(Event{Kind: EventRouteUpdated, Service: svc})
	return nil
}

// Pod returns the named pod, or nil.
func (c *Cluster) Pod(name string) *Pod { return c.pods[name] }

// PodsOf returns the pods of a service sorted by name.
func (c *Cluster) PodsOf(service string) []*Pod {
	svc := c.services[service]
	if svc == nil {
		return nil
	}
	out := slices.Clone(svc.pods)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Pods returns all pods sorted by name.
func (c *Cluster) Pods() []*Pod {
	out := make([]*Pod, 0, len(c.pods))
	for _, p := range c.pods {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// NumPods returns the live pod count.
func (c *Cluster) NumPods() int { return len(c.pods) }

// Watch registers fn to receive every subsequent API-server event.
func (c *Cluster) Watch(fn func(Event)) { c.watchers = append(c.watchers, fn) }

func (c *Cluster) notify(e Event) {
	for _, w := range c.watchers {
		w(e)
	}
}

// InjectSidecars sets the sidecar resource request on every current pod,
// modeling Istio-style sidecar injection.
func (c *Cluster) InjectSidecars(r Resources) {
	for _, p := range c.pods {
		p.Sidecar = r
	}
}

// SpreadPods creates count pods of a service round-robin across the
// cluster's nodes. It is the bulk-provisioning helper the scale experiments
// use.
func (c *Cluster) SpreadPods(service string, count int, app Resources) ([]*Pod, error) {
	if len(c.nodes) == 0 {
		return nil, fmt.Errorf("cluster %s: no nodes", c.Name)
	}
	pods := make([]*Pod, 0, count)
	for i := 0; i < count; i++ {
		p, err := c.AddPod(service, c.nodes[i%len(c.nodes)], app)
		if err != nil {
			return pods, err
		}
		pods = append(pods, p)
	}
	return pods, nil
}
