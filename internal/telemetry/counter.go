package telemetry

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a process-global monotonic counter for leaf packages on hot
// paths (autodiff tape ops, sparse kernels) where threading a Recorder
// through every call would be invasive. Add is a single uncontended atomic
// add — cheap enough to leave always on.
type Counter struct {
	name string
	v    atomic.Int64
}

// Add increments the counter.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

var (
	registryMu sync.Mutex
	registry   []*Counter
)

// NewCounter registers and returns a global counter. Call it once per metric
// from a package-level var; duplicate names return the existing counter so
// tests re-registering are harmless.
func NewCounter(name string) *Counter {
	registryMu.Lock()
	defer registryMu.Unlock()
	for _, c := range registry {
		if c.name == name {
			return c
		}
	}
	c := &Counter{name: name}
	registry = append(registry, c)
	return c
}

// GlobalCounters snapshots every registered global counter, sorted by name.
func GlobalCounters() map[string]int64 {
	registryMu.Lock()
	defer registryMu.Unlock()
	out := make(map[string]int64, len(registry))
	for _, c := range registry {
		out[c.name] = c.Value()
	}
	return out
}

// globalCounterNames returns registered names in sorted order (for reports).
func globalCounterNames() []string {
	registryMu.Lock()
	defer registryMu.Unlock()
	names := make([]string, len(registry))
	for i, c := range registry {
		names[i] = c.name
	}
	sort.Strings(names)
	return names
}
