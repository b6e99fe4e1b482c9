// Package msg implements the inter-hypervisor communication layer of the
// resource-borrowing hypervisor.
//
// FragVisor places its messaging layer in the host kernel (inherited from
// Popcorn Linux) so that hypervisor services — DSM, vCPU migration, IPI
// forwarding, I/O delegation — exchange typed messages without user/kernel
// transitions. This package models that layer: named services register
// handlers per node, and messages traverse the cluster fabric with a small
// fixed in-kernel processing cost at the receiver. Same-node messages skip
// the fabric entirely.
//
// Three delivery styles are offered: fire-and-forget Send; Call, which
// blocks the calling process until the remote handler replies — the shape
// of every request/response protocol built on top (page fetches, interrupt
// acknowledgements, migration handshakes); and CallFunc, the same exchange
// for callers with no process, whose continuation runs as an event
// callback at the point Call's caller would have resumed.
package msg

import (
	"fmt"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Params tunes the messaging layer cost model.
type Params struct {
	// HandlerLat is the fixed in-kernel processing time charged at the
	// receiver before a handler runs (interrupt + demultiplexing).
	HandlerLat sim.Time
	// HeaderBytes is added to every message's wire size.
	HeaderBytes int
}

// DefaultParams returns the kernel-space messaging costs used by FragVisor.
func DefaultParams() Params {
	return Params{HandlerLat: 500 * sim.Nanosecond, HeaderBytes: 64}
}

// Handler consumes a delivered message. Handlers run as event callbacks
// and never block. A handler whose work waits on further messages either
// continues in CallFunc callbacks, as the DSM directory does, or spawns a
// process that can Call.
type Handler func(m *Message)

// Message is a typed message between hypervisor instances.
type Message struct {
	From    int    // sender node (or cluster.ClientID)
	To      int    // receiver node
	Service string // destination service name
	Kind    string // message type within the service
	Size    int    // payload size in bytes (wire size adds the header)
	Payload any

	layer   *Layer
	replyEv *sim.Event // on a Call request: fired when the reply is delivered
	then    func()     // on a CallFunc request: run when the reply is delivered or the call expires
	alarm   sim.Alarm  // on a CallFuncTimeout request: the reply deadline
	peer    *Message   // a request's reply once sent; a reply's request
	hop     func()     // m.arrive, bound once and run for both delivery hops
	span    int64      // tracing span covering this message's delivery
	isReply bool       // delivery resumes the request's caller instead of a handler
	arrived bool       // the fabric hop is done; the next hop runs the handler
	dup     bool       // fault-injected duplicate delivery of an earlier message
	expired bool       // on a CallFuncTimeout request: the deadline came before the reply
}

// SpanID returns the tracing span covering this message's delivery (0 when
// the layer is untraced). Handlers use it as the causal parent for work the
// message triggers.
func (m *Message) SpanID() int64 { return m.span }

// Duplicate reports whether this delivery is a fault-injected duplicate of
// an earlier message. Handlers that are not naturally idempotent may use
// it to skip side effects.
func (m *Message) Duplicate() bool { return m.dup }

// Response returns the reply to a CallFunc request once its continuation
// runs, or nil if the call expired first (CallFuncTimeout). A reply that
// arrives after the deadline is dropped and never becomes the response.
func (m *Message) Response() *Message {
	if m.expired {
		return nil
	}
	return m.peer
}

// Reply sends a response of the given size back to the caller of Call or
// CallFunc. Replying to a one-way message, or twice, panics. Replies to
// duplicate deliveries are silently discarded: the requester's call
// already completed against the original, so the wire would carry an
// answer nobody is waiting for.
func (m *Message) Reply(size int, payload any) {
	if m.dup {
		m.layer.faults.DupRepliesDropped++
		return
	}
	if m.replyEv == nil && m.then == nil {
		panic(fmt.Sprintf("msg: Reply to one-way %s/%s", m.Service, m.Kind))
	}
	if m.peer != nil {
		panic(fmt.Sprintf("msg: duplicate Reply to %s/%s", m.Service, m.Kind))
	}
	resp := &Message{
		From: m.To, To: m.From,
		Service: m.Service, Kind: m.layer.replyKind(m.Kind),
		Size: size, Payload: payload, layer: m.layer,
		peer: m, span: m.span, isReply: true,
	}
	m.peer = resp
	m.layer.deliver(resp)
}

// ServiceStats counts traffic for one service.
type ServiceStats struct {
	Messages int64
	Bytes    int64
}

// Layer is the messaging layer over a fabric. Construct with NewLayer.
type Layer struct {
	env      *sim.Env
	net      *netsim.Net
	params   Params
	handlers map[serviceKey]Handler
	stats    map[string]*ServiceStats
	filter   Filter
	faults   FaultStats
	tr       *trace.Tracer
	services map[string]int
	replies  map[string]string // request kind -> interned reply kind
}

type serviceKey struct {
	node    int
	service string
}

// NewLayer returns a messaging layer over the given fabric, of either
// route shape (netsim.New or a topo.Spec's tree).
func NewLayer(env *sim.Env, net *netsim.Net, p Params) *Layer {
	return &Layer{
		env:      env,
		net:      net,
		params:   p,
		handlers: make(map[serviceKey]Handler),
		stats:    make(map[string]*ServiceStats),
		tr:       trace.FromEnv(env),
		replies:  make(map[string]string),
	}
}

// replyKind returns kind + ".reply", built once per kind so a reply
// allocates no string.
func (l *Layer) replyKind(kind string) string {
	rk, ok := l.replies[kind]
	if !ok {
		rk = kind + ".reply"
		l.replies[kind] = rk
	}
	return rk
}

// Instance returns a fresh 1-based sequence number for the named service
// family on this layer, e.g. Instance("dsm") → 1, 2, ... Components use it
// to mint unique service names ("dsm1", "dsm2") that are deterministic per
// simulation rather than per process, which keeps span and stats names
// byte-identical across same-seed runs in the same binary.
func (l *Layer) Instance(family string) int {
	if l.services == nil {
		l.services = make(map[string]int)
	}
	l.services[family]++
	return l.services[family]
}

// Handle registers the handler for a service on a node, replacing any
// previous registration.
func (l *Layer) Handle(node int, service string, h Handler) {
	l.handlers[serviceKey{node, service}] = h
}

// Send delivers a one-way message. The destination service must be
// registered by delivery time; unrouteable messages panic, since a lost
// hypervisor message is a protocol bug, not a recoverable condition.
func (l *Layer) Send(from, to int, service, kind string, size int, payload any) {
	l.SendCtx(0, from, to, service, kind, size, payload)
}

// SendCtx is Send with a causal tracing parent: the message's delivery
// span is created as a child of the given span. Send uses parent 0.
func (l *Layer) SendCtx(span int64, from, to int, service, kind string, size int, payload any) {
	m := &Message{From: from, To: to, Service: service, Kind: kind, Size: size, Payload: payload, layer: l, span: span}
	l.deliver(m)
}

// Call delivers a request and blocks the process until the handler replies.
// It returns the reply message.
func (l *Layer) Call(p *sim.Proc, from, to int, service, kind string, size int, payload any) *Message {
	m := &Message{From: from, To: to, Service: service, Kind: kind, Size: size, Payload: payload, layer: l, span: p.Span()}
	m.replyEv = l.env.NewEvent()
	l.deliver(m)
	p.Wait(m.replyEv)
	return m.peer
}

// CallFunc delivers a request like Call, for a caller that is not a
// process: then runs as an event callback once the reply is delivered,
// scheduled at the point where Call would have woken its caller, and reads
// the reply with Response on the returned request. span is the causal
// tracing parent, as for SendCtx.
func (l *Layer) CallFunc(span int64, from, to int, service, kind string, size int, payload any, then func()) *Message {
	m := &Message{From: from, To: to, Service: service, Kind: kind, Size: size, Payload: payload, layer: l, span: span, then: then}
	l.deliver(m)
	return m
}

// deliver routes a message through the fabric (or locally) and invokes the
// destination handler after the receive-side processing cost. A reply
// fires the caller's event instead of a handler lookup.
func (l *Layer) deliver(m *Message) {
	st, ok := l.stats[m.Service]
	if !ok {
		st = &ServiceStats{}
		l.stats[m.Service] = st
	}
	st.Messages++
	st.Bytes += int64(m.Size)
	if l.tr != nil {
		// The delivery span covers serialization, flight, and handling;
		// it stays open forever if fault injection eats the message —
		// visibly, in the exported trace.
		m.span = l.tr.Begin(m.span, trace.CatNet, m.To, l.tr.Key(m.Service, m.Kind))
	}

	// One bound callback serves both hops (fabric arrival, then handler
	// latency), and pooled fire-and-forget timers carry it: delivery never
	// cancels, so neither hop allocates a Timer.
	m.hop = m.arrive

	var verdict MsgOutcome
	if l.filter != nil {
		verdict = l.filter.MsgOutcome(m.From, m.To, m.Service, m.Kind)
	}
	if m.From == m.To {
		// Same-node messages short-circuit the fabric but still pay the
		// handler demultiplexing cost. A crashed node delivers nothing,
		// not even to itself.
		if verdict.Drop {
			l.faults.Dropped++
			return
		}
		l.env.Defer(0, m.hop)
		return
	}
	// Cross-node drop/delay faults are ruled on by the fabric's own
	// filter inside net.Send; the messaging layer adds duplication, which
	// must be applied here so the duplicate can be delivered as a marked
	// Message whose Reply is discarded.
	l.net.SendCtx(m.span, m.From, m.To, m.Size+l.params.HeaderBytes, m.hop)
	if verdict.Duplicate {
		l.faults.Duplicated++
		clone := *m
		clone.dup = true
		l.net.Send(m.From, m.To, m.Size+l.params.HeaderBytes, func() {
			l.env.Defer(l.params.HandlerLat, func() {
				if clone.isReply {
					// Duplicate replies are dropped at the requester:
					// the original already completed the call.
					l.faults.DupRepliesDropped++
					return
				}
				if h, ok := l.handlers[serviceKey{clone.To, clone.Service}]; ok {
					h(&clone)
				}
			})
		})
	}
}

// arrive is a message's delivery callback. Its first run is the arrival
// at the receiver, which charges the handler latency; its second runs the
// destination handler, or fires the caller's event for a reply.
func (m *Message) arrive() {
	l := m.layer
	if !m.arrived {
		m.arrived = true
		l.env.Defer(l.params.HandlerLat, m.hop)
		return
	}
	if m.isReply {
		m.peer.resume()
	} else {
		h, ok := l.handlers[serviceKey{m.To, m.Service}]
		if !ok {
			panic(fmt.Sprintf("msg: no handler for %s on node %d (kind %s)", m.Service, m.To, m.Kind))
		}
		h(m)
	}
	l.tr.End(m.span)
}

// resume continues the caller of request m, whose reply has just been
// delivered: it wakes a Call's process, or schedules a CallFunc's
// continuation at that same point. A reply to a call that already expired
// resumes nobody.
func (m *Message) resume() {
	if m.replyEv != nil {
		m.replyEv.Fire()
		return
	}
	if m.expired {
		return
	}
	m.alarm.Cancel()
	m.layer.env.Defer(0, m.then)
}

// Stats returns the traffic counters for a service (zeroes if unused).
func (l *Layer) Stats(service string) ServiceStats {
	if st, ok := l.stats[service]; ok {
		return *st
	}
	return ServiceStats{}
}

// Net returns the underlying fabric.
func (l *Layer) Net() *netsim.Net { return l.net }

// Env returns the simulation environment.
func (l *Layer) Env() *sim.Env { return l.env }

// Params returns the layer's cost parameters.
func (l *Layer) Params() Params { return l.params }
