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
// where the transport delivers: on UDPTransport's read goroutine, or in a
// MemNetwork's clock callbacks, which on a virtual clock are simulator events
// on the goroutine driving it. Implementations deliver each datagram at most
// once and may drop or reorder (the protocol tolerates both).
type Transport interface {
	// Addr returns this endpoint's address.
	Addr() wire.Addr
	// Send transmits one datagram. It never blocks on the receiver and
	// never calls a handler itself: the node sends while holding its lock.
	// It must neither retain nor mutate data once it has returned: the node
	// hands the same bytes to Send once per child when it fans a packet
	// out. An implementation that delivers later (queues, delays,
	// duplicates) copies first.
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
// endpoint is a registered address, and every datagram is delivered by a
// clock timer, latency after its Send, to the handler of the endpoint it was
// addressed to — or to no one, if that endpoint has closed by then. On a
// virtual clock (NewVirtualClock) deliveries are simulator events, so a whole
// overlay runs on one goroutine in a seed-fixed order; on the wall clock each
// delivery runs on its timer's goroutine, concurrently with the others.
type MemNetwork struct {
	// clock and latency are set once at construction and never mutated, so
	// reads from Send need no lock (and no annotation).
	clock   Clock
	latency func(from, to wire.Addr) time.Duration

	mu     sync.Mutex
	nodes  map[wire.Addr]*memEndpoint //guardedby:mu
	closed bool                       //guardedby:mu
}

// NewMemNetwork creates a network on clock (nil is the wall clock); latency
// may be nil (delivery at the send instant, still through the clock).
func NewMemNetwork(clock Clock, latency func(from, to wire.Addr) time.Duration) *MemNetwork {
	if clock == nil {
		clock = WallClock()
	}
	return &MemNetwork{
		clock:   clock,
		latency: latency,
		nodes:   make(map[wire.Addr]*memEndpoint),
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
	ep := &memEndpoint{net: n, addr: addr}
	n.nodes[addr] = ep
	return ep, nil
}

// Close shuts the whole network down: every endpoint closes, and datagrams
// still in flight are dropped when their timers fire.
func (n *MemNetwork) Close() {
	n.mu.Lock()
	n.closed = true
	eps := make([]*memEndpoint, 0, len(n.nodes))
	for _, ep := range n.nodes {
		eps = append(eps, ep)
	}
	n.mu.Unlock()
	for _, ep := range eps {
		_ = ep.Close()
	}
}

type memEndpoint struct {
	net  *MemNetwork
	addr wire.Addr

	mu      sync.Mutex
	handler func([]byte) //guardedby:mu
	closed  bool         //guardedby:mu
}

var _ Transport = (*memEndpoint)(nil)

func (e *memEndpoint) Addr() wire.Addr { return e.addr }

func (e *memEndpoint) SetHandler(h func([]byte)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.handler = h
}

// Send schedules the datagram's delivery to the endpoint registered at to
// now. It holds the endpoint's lock until the delivery is scheduled, so
// nothing is scheduled once Close has returned.
func (e *memEndpoint) Send(to wire.Addr, data []byte) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrClosed
	}
	e.net.mu.Lock()
	dst, ok := e.net.nodes[to]
	e.net.mu.Unlock()
	if !ok {
		return fmt.Errorf("node: sending to %q: %w", to, ErrUnknownAddr)
	}
	var d time.Duration
	if e.net.latency != nil {
		d = e.net.latency(e.addr, to)
	}
	// Copy: delivery outlives Send, and data stays the caller's.
	buf := append([]byte(nil), data...)
	e.net.clock.AfterFunc(d, func() { dst.deliver(buf) })
	return nil
}

// deliver hands one datagram to the handler unless the endpoint has closed.
func (e *memEndpoint) deliver(data []byte) {
	e.mu.Lock()
	h := e.handler
	if e.closed {
		h = nil
	}
	e.mu.Unlock()
	if h != nil {
		h(data)
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
	e.net.mu.Lock()
	delete(e.net.nodes, e.addr)
	e.net.mu.Unlock()
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
