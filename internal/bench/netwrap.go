package bench

import (
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// WireCounts is what crossed the coordinator's sockets: Up is bytes read
// from parties, Down bytes written to them, counted in Read and Write
// themselves and therefore true wire payload (TCP/IP headers excluded).
type WireCounts struct {
	Up, Down   int64
	WriteBlock time.Duration // time spent inside Write
}

// CountingListener wraps every accepted connection so that the bytes the
// coordinator moves are counted where they meet the socket, whatever the
// runtime believes it sent.
type CountingListener struct {
	net.Listener
	// Accepted, when set, receives one value per accepted connection; it
	// must have room for all of them.
	Accepted chan struct{}

	up, down, blockNs atomic.Int64

	mu    sync.Mutex
	conns []net.Conn
}

// Accept wraps the accepted connection.
func (l *CountingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	l.conns = append(l.conns, c)
	l.mu.Unlock()
	if l.Accepted != nil {
		l.Accepted <- struct{}{}
	}
	return &countedConn{Conn: c, l: l}, nil
}

// Counts returns the totals so far.
func (l *CountingListener) Counts() WireCounts {
	return WireCounts{
		Up: l.up.Load(), Down: l.down.Load(), WriteBlock: time.Duration(l.blockNs.Load()),
	}
}

// CloseConns closes every accepted connection; the parties' serve loops end
// on the resulting EOF.
func (l *CountingListener) CloseConns() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, c := range l.conns {
		_ = c.Close() // best effort: the peer may have closed first
	}
	l.conns = nil
}

type countedConn struct {
	net.Conn
	l *CountingListener
}

func (c *countedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.l.up.Add(int64(n))
	return n, err
}

func (c *countedConn) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := c.Conn.Write(p)
	c.l.blockNs.Add(int64(time.Since(t0)))
	c.l.down.Add(int64(n))
	return n, err
}
