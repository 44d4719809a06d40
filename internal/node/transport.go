package node

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"omcast/internal/metrics/live"
	"omcast/internal/wire"
)

// Transport moves encoded envelopes between protocol endpoints. Handlers run
// on transport-owned goroutines; implementations deliver each datagram at
// most once and may drop or reorder (the protocol tolerates both).
type Transport interface {
	// Addr returns this endpoint's address.
	Addr() wire.Addr
	// Send transmits one datagram. It never blocks on the receiver, and it
	// must neither retain nor mutate data once it has returned: the node
	// hands the same bytes to Send once per child when it fans a packet out.
	// An implementation that delivers later (queues, delays, duplicates)
	// copies first.
	Send(to wire.Addr, data []byte) error
	// SetHandler installs the receive callback; must be called before the
	// first delivery is expected.
	SetHandler(h func(data []byte))
	// Close releases the endpoint; Send afterwards fails.
	Close() error
}

// ErrClosed is returned by Send after Close.
var ErrClosed = errors.New("node: transport closed")

// ErrUnknownAddr is returned by the in-memory transport for unregistered
// destinations.
var ErrUnknownAddr = errors.New("node: unknown address")

// ErrOversize is returned by UDPTransport.Send for datagrams over the UDP
// payload ceiling, instead of letting the OS fail (or worse, fragment) them.
var ErrOversize = errors.New("node: datagram exceeds UDP payload ceiling")

// MaxUDPDatagram is the largest payload one UDP/IPv4 datagram can carry:
// 65535 minus the 20-byte IP and 8-byte UDP headers. wire.MaxDatagram (64
// KiB) is slightly above it, so the transport enforces its own ceiling — an
// envelope that validates can still be unsendable over UDP.
const MaxUDPDatagram = 65507

// MemNetwork is an in-process datagram network for tests and examples: each
// endpoint is a registered mailbox, delivery happens on a per-endpoint
// goroutine after a configurable latency.
type MemNetwork struct {
	mu    sync.Mutex
	nodes map[wire.Addr]*memEndpoint //guardedby:mu
	// latency is set once at construction and never mutated, so reads from
	// Send goroutines need no lock (and no annotation).
	latency func(from, to wire.Addr) time.Duration
	wg      sync.WaitGroup
	closed  bool //guardedby:mu

	// mailboxDrops counts datagrams discarded because a destination mailbox
	// was full.
	mailboxDrops atomic.Int64
}

// NewMemNetwork creates a network; latency may be nil (instant delivery).
func NewMemNetwork(latency func(from, to wire.Addr) time.Duration) *MemNetwork {
	return &MemNetwork{
		nodes:   make(map[wire.Addr]*memEndpoint),
		latency: latency,
	}
}

// Endpoint registers a new address on the network.
func (n *MemNetwork) Endpoint(addr wire.Addr) (Transport, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrClosed
	}
	if _, dup := n.nodes[addr]; dup {
		return nil, fmt.Errorf("node: address %q already registered", addr)
	}
	ep := &memEndpoint{
		net:  n,
		addr: addr,
		inCh: make(chan []byte, 1024),
		done: make(chan struct{}),
	}
	n.nodes[addr] = ep
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		ep.deliverLoop()
	}()
	return ep, nil
}

// Close shuts the whole network down and waits for delivery goroutines.
func (n *MemNetwork) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	eps := make([]*memEndpoint, 0, len(n.nodes))
	for _, ep := range n.nodes {
		eps = append(eps, ep)
	}
	n.mu.Unlock()
	for _, ep := range eps {
		_ = ep.Close()
	}
	n.wg.Wait()
}

func (n *MemNetwork) lookup(addr wire.Addr) (*memEndpoint, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	ep, ok := n.nodes[addr]
	return ep, ok
}

func (n *MemNetwork) remove(addr wire.Addr) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.nodes, addr)
}

type memEndpoint struct {
	net  *MemNetwork
	addr wire.Addr

	mu      sync.Mutex
	handler func([]byte) //guardedby:mu
	closed  bool         //guardedby:mu

	inCh chan []byte
	done chan struct{}
}

var _ Transport = (*memEndpoint)(nil)

func (e *memEndpoint) Addr() wire.Addr { return e.addr }

func (e *memEndpoint) SetHandler(h func([]byte)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.handler = h
}

func (e *memEndpoint) Send(to wire.Addr, data []byte) error {
	e.mu.Lock()
	closed := e.closed
	e.mu.Unlock()
	if closed {
		return ErrClosed
	}
	dst, ok := e.net.lookup(to)
	if !ok {
		return fmt.Errorf("node: sending to %q: %w", to, ErrUnknownAddr)
	}
	// Copy: delivery outlives Send, and data stays the caller's.
	buf := append([]byte(nil), data...)
	deliver := func() {
		select {
		case dst.inCh <- buf:
		case <-dst.done:
		default:
			// Mailbox full: drop, like a congested datagram network — but
			// count it so congestion is observable.
			e.net.mailboxDrops.Add(1)
		}
	}
	if e.net.latency == nil {
		deliver()
		return nil
	}
	d := e.net.latency(e.addr, to)
	if d <= 0 {
		deliver()
		return nil
	}
	// The timer callback is safe after Close: deliver selects on dst.done.
	time.AfterFunc(d, deliver)
	return nil
}

func (e *memEndpoint) deliverLoop() {
	for {
		select {
		case <-e.done:
			return
		case data := <-e.inCh:
			e.mu.Lock()
			h := e.handler
			e.mu.Unlock()
			if h != nil {
				h(data)
			}
		}
	}
}

func (e *memEndpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	e.mu.Unlock()
	close(e.done)
	e.net.remove(e.addr)
	return nil
}

// UDPTransport runs the protocol over real UDP datagrams.
type UDPTransport struct {
	conn *net.UDPConn
	addr wire.Addr

	mu      sync.Mutex
	handler func([]byte) //guardedby:mu
	closed  bool         //guardedby:mu
	wg      sync.WaitGroup

	// dropMetric counts sends refused by the MaxUDPDatagram ceiling once
	// SetMetrics has registered it on a live registry.
	dropMetric atomic.Pointer[live.Counter]
}

var _ Transport = (*UDPTransport)(nil)

// NewUDPTransport binds a UDP socket. Pass "127.0.0.1:0" for an ephemeral
// loopback port.
func NewUDPTransport(listen string) (*UDPTransport, error) {
	laddr, err := net.ResolveUDPAddr("udp", listen)
	if err != nil {
		return nil, fmt.Errorf("node: resolving %q: %w", listen, err)
	}
	conn, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, fmt.Errorf("node: binding %q: %w", listen, err)
	}
	t := &UDPTransport{
		conn: conn,
		addr: wire.Addr(conn.LocalAddr().String()),
	}
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		t.readLoop()
	}()
	return t, nil
}

// Addr implements Transport.
func (t *UDPTransport) Addr() wire.Addr { return t.addr }

// SetHandler implements Transport.
func (t *UDPTransport) SetHandler(h func([]byte)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.handler = h
}

// SetMetrics registers the transport's instruments on a live registry; safe
// to call at any point, including while traffic is flowing.
func (t *UDPTransport) SetMetrics(reg *live.Registry) {
	c := reg.Counter("omcast_node_udp_oversize_dropped_total",
		"Datagrams refused by UDPTransport.Send for exceeding the UDP payload ceiling.")
	t.dropMetric.Store(c)
}

// Send implements Transport. An IP-literal destination (every address a
// UDP node learns from the wire) is parsed in place and written without
// allocating; anything else, a host name, is resolved on every send as
// net.ResolveUDPAddr does it.
func (t *UDPTransport) Send(to wire.Addr, data []byte) error {
	t.mu.Lock()
	closed := t.closed
	t.mu.Unlock()
	if closed {
		return ErrClosed
	}
	if len(data) > MaxUDPDatagram {
		t.dropMetric.Load().Inc() // nil receiver is the uninstrumented no-op
		return fmt.Errorf("node: sending %d bytes to %q: %w", len(data), to, ErrOversize)
	}
	var err error
	if ap, perr := netip.ParseAddrPort(string(to)); perr == nil {
		// Unmap: an IPv4-only socket takes "[::ffff:a.b.c.d]:p" as the
		// resolver path does, and a dual-stack one maps it back.
		_, err = t.conn.WriteToUDPAddrPort(data, netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port()))
	} else {
		raddr, rerr := net.ResolveUDPAddr("udp", string(to))
		if rerr != nil {
			return fmt.Errorf("node: resolving %q: %w", to, rerr)
		}
		_, err = t.conn.WriteToUDP(data, raddr)
	}
	if err != nil {
		return fmt.Errorf("node: sending to %q: %w", to, err)
	}
	return nil
}

// readLoop hands every datagram to the handler in a buffer of its own: a
// decoded Payload aliases it and the repair ring keeps it, so the one copy
// per datagram is owned, never recycled. The sender's socket address is not
// read; the envelope names its sender.
func (t *UDPTransport) readLoop() {
	buf := make([]byte, 64*1024)
	for {
		n, err := t.conn.Read(buf)
		if err != nil {
			return // closed
		}
		data := append([]byte(nil), buf[:n]...)
		t.mu.Lock()
		h := t.handler
		t.mu.Unlock()
		if h != nil {
			h(data)
		}
	}
}

// Close shuts the socket and waits for the read loop.
func (t *UDPTransport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	t.mu.Unlock()
	err := t.conn.Close()
	t.wg.Wait()
	return err
}
