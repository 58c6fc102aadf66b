package soak

import (
	"fmt"
	"sync"
	"time"
)

// Chaos is the registry of the proxies fronting a fleet's instances.
// Install its Front as the fleet's interposer (autopilot.Fleet.Front):
// every instance launched from then on is reached only through its own
// proxy, whose address is the instance's one address, and SetDelay,
// SetStall and Cut perturb that wire by the same address. The zero value
// is ready to use.
type Chaos struct {
	mu      sync.Mutex
	proxies map[string]*proxy // by front address
}

// Front interposes a fresh proxy on the instance at backend and returns
// the proxy's address and the release that closes it.
func (c *Chaos) Front(backend string) (string, func(), error) {
	p, err := newProxy(backend)
	if err != nil {
		return "", nil, err
	}
	front := p.addr()
	c.mu.Lock()
	if c.proxies == nil {
		c.proxies = make(map[string]*proxy)
	}
	c.proxies[front] = p
	c.mu.Unlock()
	return front, func() {
		c.mu.Lock()
		delete(c.proxies, front)
		c.mu.Unlock()
		p.close()
	}, nil
}

func (c *Chaos) lookup(front string) (*proxy, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if p := c.proxies[front]; p != nil {
		return p, nil
	}
	return nil, fmt.Errorf("soak: no proxied instance at %s", front)
}

// SetDelay adds d of one-way latency per forwarded chunk on the
// instance's wire; 0 restores the clean network.
func (c *Chaos) SetDelay(front string, d time.Duration) error {
	p, err := c.lookup(front)
	if err == nil {
		p.setDelay(d)
	}
	return err
}

// SetStall pauses (true) or resumes (false) all traffic to and from the
// instance without dropping a byte a live endpoint sent — a transient
// network partition.
func (c *Chaos) SetStall(front string, on bool) error {
	p, err := c.lookup(front)
	if err == nil {
		p.setStall(on)
	}
	return err
}

// Cut hard-partitions the instance: live connections reset, new ones
// refused. The controller evicts it and the fault path reaps the
// healthy-but-unreachable backend, exactly as a production fleet manager
// treats a machine it can no longer talk to.
func (c *Chaos) Cut(front string) error {
	p, err := c.lookup(front)
	if err == nil {
		p.cut()
	}
	return err
}
