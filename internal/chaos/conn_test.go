package chaos

// conn_test.go injects faults at the transport layer: a net.Conn wrapper that
// delays reads/writes or severs the link mid-RPC, and a listener wrapper
// that hands out severing connections for the first K accepts — the shape
// of fault the coordinator's retry/reconnect path has to survive.

import (
	"errors"
	"net"
	"sync/atomic"
	"time"
)

// ErrSevered is returned by a Conn whose link was cut mid-write.
var ErrSevered = errors.New("chaos: link severed mid-write")

// Conn wraps a net.Conn with deterministic link faults.
type Conn struct {
	net.Conn
	// ReadDelay and WriteDelay are slept before each corresponding call.
	ReadDelay  time.Duration
	WriteDelay time.Duration
	// SeverOnWrite cuts the link on the first write after WritesBeforeSever
	// clean ones: the underlying connection is closed (so the peer sees EOF)
	// and the write reports ErrSevered.
	SeverOnWrite      bool
	WritesBeforeSever int

	writes  atomic.Int64
	severed atomic.Bool
}

func (c *Conn) Read(p []byte) (int, error) {
	if c.severed.Load() {
		return 0, ErrSevered
	}
	if c.ReadDelay > 0 {
		time.Sleep(c.ReadDelay)
	}
	return c.Conn.Read(p)
}

func (c *Conn) Write(p []byte) (int, error) {
	if c.WriteDelay > 0 {
		time.Sleep(c.WriteDelay)
	}
	if c.SeverOnWrite && c.writes.Add(1) > int64(c.WritesBeforeSever) && c.severed.CompareAndSwap(false, true) {
		c.Conn.Close()
		return 0, ErrSevered
	}
	if c.severed.Load() {
		return 0, ErrSevered
	}
	return c.Conn.Write(p)
}

// FlakyListener wraps a net.Listener so that the first FailFirst accepted
// connections sever on the accepter's first write (or, with
// WritesBeforeSever set, on the first write after that many clean ones).
// Later accepts pass through untouched, so a dialer that reconnects
// eventually gets a clean link.
type FlakyListener struct {
	net.Listener
	WritesBeforeSever int
	failFirst         int32
	accepted          atomic.Int32
}

// NewFlakyListener returns a listener whose first failFirst accepted
// connections are replaced by severing Conns.
func NewFlakyListener(ln net.Listener, failFirst int) *FlakyListener {
	return &FlakyListener{Listener: ln, failFirst: int32(failFirst)}
}

func (l *FlakyListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	if l.accepted.Add(1) <= l.failFirst {
		return &Conn{Conn: conn, SeverOnWrite: true, WritesBeforeSever: l.WritesBeforeSever}, nil
	}
	return conn, nil
}
