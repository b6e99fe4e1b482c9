// Package sim provides a deterministic discrete-event simulation core.
//
// The package models virtual time as nanoseconds and executes events from a
// priority queue ordered by (time, insertion sequence), which makes every
// simulation run bit-identical for a given seed. Simulated activities are
// written as ordinary sequential Go functions running in "processes"
// (see Proc); exactly one goroutine runs simulation code at any instant, so
// process code never races even though each process is backed by a
// goroutine.
//
// That goroutine holds the baton: it pops events in (time, seq) order and
// runs them, callbacks included, until an event wakes a process. The baton
// starts with the Run caller. A process that parks keeps it and runs the
// loop itself: if the event it reaches wakes the parker again (a Sleep with
// nothing else due), park returns with no channel operation at all;
// otherwise the holder hands the baton straight to the woken process's
// goroutine with one channel send. A finished process's goroutine keeps the
// baton too, and runs the next woken process itself when that process has
// no goroutine yet. Only an empty queue, the deadline, Stop or a pending
// panic hands the baton back to Run. Which goroutine runs an event never
// changes the order events run in, so results stay bit-identical.
//
// The primitives offered are the classic discrete-event toolkit:
//
//   - Env: the event loop and virtual clock.
//   - Proc: a coroutine that can Sleep, Wait on events, and use resources.
//   - Task: a Proc table entry with no goroutine, for a state machine whose
//     steps run as event callbacks (Defer, Mutex.LockFunc, a message
//     layer's reply callbacks) and which retires itself with Finish.
//   - Event: a one-shot broadcast signal.
//   - Queue: an unbounded FIFO with blocking Get.
//   - Mutex: a FIFO-fair lock for processes and callbacks.
//   - PS: a processor-sharing resource modeling a CPU core.
//
// All the distributed-hypervisor machinery in this repository (network
// fabric, DSM protocol, vCPUs, virtio devices, schedulers) is built on these
// primitives.
//
// The core is engineered for steady-state long runs (see DESIGN.md §10):
// waiter lists and queues are ring buffers that release popped elements,
// cancelled timers are lazily deleted from the event heap and compacted
// once they outnumber live ones, finished processes are reaped from the
// process table, and internal wake-up timers are pooled on a free list so
// the hot dispatch path allocates nothing.
package sim

import (
	"fmt"
	"runtime/debug"
)

// Time is a point in virtual time, in nanoseconds since simulation start.
// It doubles as a duration type; the arithmetic reads naturally either way.
type Time int64

// Common duration units, usable as multipliers (e.g. 5*sim.Microsecond).
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// FromSeconds converts a floating-point number of seconds to a Time.
func FromSeconds(s float64) Time { return Time(s * float64(Second)) }

// Seconds reports t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String renders the time with a unit chosen for readability.
func (t Time) String() string {
	switch {
	case t < 0:
		return "-" + (-t).String()
	case t < Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case t < Millisecond:
		return fmt.Sprintf("%.2fus", float64(t)/float64(Microsecond))
	case t < Second:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.4fs", float64(t)/float64(Second))
	}
}

// Timer lifecycle states. A timer is pending while queued, fired once the
// event loop pops it for execution, and cancelled if Cancel won the race.
const (
	timerPending uint8 = iota
	timerFired
	timerCancelled
)

// Timer is a scheduled callback. It can be cancelled before it fires.
//
// Internally a timer carries a callback (fn), a process to wake (proc), or
// a timeout check (proc+ev); the non-callback forms let the hot wake-up and
// RPC-timeout paths skip closure allocation entirely. Timers created by the
// core's own primitives are pooled on the environment's free list once they
// retire; timers returned by At/After are not, because the caller may hold
// the reference indefinitely.
type Timer struct {
	at     Time
	seq    uint64
	fn     func()
	proc   *Proc  // wake-up target; nil for callback timers
	ev     *Event // with proc: wake only if proc still waits on ev (WaitTimeout)
	env    *Env
	gen    uint64 // incarnation count; guards held references to pooled timers
	state  uint8
	pooled bool
}

// Cancel prevents the timer's callback from running. Cancelling an
// already-fired or already-cancelled timer is a no-op.
//
// The timer stays in the event heap — deleting from the middle of a binary
// heap is O(n) — and is discarded when popped. The environment counts these
// corpses and compacts the heap once they outnumber live timers, so an
// RPC-timeout storm (every reply beating its timeout) keeps the heap
// bounded by twice the live timer population instead of accumulating dead
// entries until their far-future deadlines.
func (t *Timer) Cancel() {
	if t.state != timerPending {
		return
	}
	t.state = timerCancelled
	e := t.env
	e.deadTimers++
	if len(e.events) >= heapCompactMin && e.deadTimers*2 > len(e.events) {
		e.compactTimers()
	}
}

// heapCompactMin is the heap size below which compaction is not worth the
// re-heapify; small heaps drain dead timers quickly on their own.
const heapCompactMin = 64

// procCompactMin is the process-table size below which finished procs are
// left in place rather than compacted out.
const procCompactMin = 32

// eventHeap is a binary heap of timers ordered by (time, sequence). The
// sift operations are hand-rolled rather than container/heap so the event
// loop's hottest instructions avoid interface dispatch; because (time, seq)
// is a total order, pop order — and therefore simulation behavior — is
// identical to any other correct heap over the same comparator.
type eventHeap []*Timer

// timerLess is the (time, sequence) total order on queued timers.
func timerLess(a, b *Timer) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push inserts t, restoring the heap invariant.
func (h *eventHeap) push(t *Timer) {
	s := append(*h, t)
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !timerLess(s[i], s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
	*h = s
}

// pop removes and returns the earliest timer.
func (h *eventHeap) pop() *Timer {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = nil
	s = s[:n]
	*h = s
	if n > 1 {
		h.siftDown(0)
	}
	return top
}

// siftDown restores the invariant below index i.
func (h *eventHeap) siftDown(i int) {
	s := *h
	n := len(s)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		least := left
		if right := left + 1; right < n && timerLess(s[right], s[left]) {
			least = right
		}
		if !timerLess(s[least], s[i]) {
			return
		}
		s[i], s[least] = s[least], s[i]
		i = least
	}
}

// init heapifies an arbitrarily ordered slice in O(n).
func (h *eventHeap) init() {
	for i := len(*h)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
}

// Env is a simulation environment: a virtual clock plus the pending-event
// queue. The zero value is not usable; construct with NewEnv.
type Env struct {
	now        Time
	events     eventHeap
	deadTimers int // cancelled timers still sitting in events
	timerFree  []*Timer
	workerFree []*worker
	seq        uint64
	home       chan struct{} // baton hand-back to the RunUntil caller
	deadline   Time          // of the RunUntil in progress
	current    *Proc
	panicked   any // proc or callback panic for RunUntil to re-raise
	stopped    bool
	spawned    int
	procs      []*Proc
	finished   int // finished procs still sitting in procs
	trace      any

	// No-progress watchdog state (watchdog.go): progress advances on
	// every proc completion and MarkProgress call; a full wdWindow with
	// no advance records stall and stops the run.
	progress uint64
	stall    *StallError
	wdWindow Time
	wdLast   uint64
	wdGen    uint64
}

// SetTrace attaches an opaque tracing context to the environment. The sim
// core never interprets it; packages built on sim (see internal/trace)
// retrieve it with Trace and type-assert. Held as `any` so the core stays
// free of tracing dependencies.
func (e *Env) SetTrace(t any) { e.trace = t }

// Trace returns the context installed with SetTrace, or nil.
func (e *Env) Trace() any { return e.trace }

// NewEnv returns an empty simulation environment at time zero.
func NewEnv() *Env {
	return &Env{home: make(chan struct{})}
}

// Now returns the current virtual time.
func (e *Env) Now() Time { return e.now }

// schedule queues a timer at absolute time at, carrying either a process to
// wake or a callback. Pooled timers are drawn from (and later returned to)
// the free list; only timers whose references never escape the core may be
// pooled, since a recycled timer that an old holder could still Cancel
// would cancel an unrelated future event.
func (e *Env) schedule(at Time, proc *Proc, fn func(), pooled bool) *Timer {
	var tm *Timer
	if n := len(e.timerFree) - 1; pooled && n >= 0 {
		tm = e.timerFree[n]
		e.timerFree[n] = nil
		e.timerFree = e.timerFree[:n]
	} else {
		tm = &Timer{env: e}
	}
	tm.at, tm.seq, tm.proc, tm.fn, tm.state, tm.pooled = at, e.seq, proc, fn, timerPending, pooled
	tm.gen++
	e.seq++
	e.events.push(tm)
	return tm
}

// wake schedules a pooled wake-up of p at the current time: the
// allocation-free fast path under every Sleep return, Event broadcast,
// Queue hand-off, and Mutex transfer.
func (e *Env) wake(p *Proc) { e.schedule(e.now, p, nil, true) }

// recycle retires a timer popped from the heap. Pooled timers return to the
// free list; others just drop their references so a caller-held Timer does
// not pin its callback.
func (e *Env) recycle(t *Timer) {
	t.fn, t.proc, t.ev = nil, nil, nil
	if t.pooled {
		e.timerFree = append(e.timerFree, t)
	}
}

// compactTimers removes cancelled timers from the event heap and restores
// the heap invariant. Ordering of live timers is untouched: the heap is
// rebuilt under the same (time, seq) total order, so compaction can never
// perturb simulation results.
func (e *Env) compactTimers() {
	live := e.events[:0]
	for _, t := range e.events {
		if t.state == timerCancelled {
			e.recycle(t)
			continue
		}
		live = append(live, t)
	}
	for i := len(live); i < len(e.events); i++ {
		e.events[i] = nil
	}
	e.events = live
	e.deadTimers = 0
	e.events.init()
}

// At schedules fn to run at absolute virtual time t, which must not be in
// the past. The returned Timer may be used to cancel the callback.
func (e *Env) At(t Time, fn func()) *Timer {
	if t < e.now {
		panic(fmt.Sprintf("sim: At(%v) is in the past (now %v)", t, e.now))
	}
	return e.schedule(t, nil, fn, false)
}

// After schedules fn to run d nanoseconds from now. Negative delays panic.
func (e *Env) After(d Time, fn func()) *Timer {
	if d < 0 {
		panic(fmt.Sprintf("sim: After(%v) with negative delay", d))
	}
	return e.schedule(e.now+d, nil, fn, false)
}

// Defer schedules fn like After but on a pooled timer and returns nothing:
// the fire-and-forget variant for hot paths (message delivery, fabric
// hops) that never cancel. Because the timer is recycled after firing,
// there is deliberately no handle to keep.
func (e *Env) Defer(d Time, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: Defer(%v) with negative delay", d))
	}
	e.schedule(e.now+d, nil, fn, true)
}

// DeferAt is Defer at an absolute virtual time, which must not be in the
// past.
func (e *Env) DeferAt(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: DeferAt(%v) is in the past (now %v)", t, e.now))
	}
	e.schedule(t, nil, fn, true)
}

// Stop makes Run return after the current event completes. Pending events
// are kept; a subsequent Run resumes the simulation.
func (e *Env) Stop() { e.stopped = true }

// Pending returns the number of queued (possibly cancelled) events. Heap
// compaction keeps this within a factor of two of the live event count.
func (e *Env) Pending() int { return len(e.events) }

// LiveProcs returns the names of processes and tasks that have been
// spawned but have not finished, in spawn order. After Run returns with an
// empty event queue, any live process is blocked on an event that will
// never fire — the definition of a simulation deadlock — so fault-injection
// harnesses assert this list is empty (or contains only
// intentionally-immortal daemons).
func (e *Env) LiveProcs() []string {
	var out []string
	for _, p := range e.procs {
		if !p.finished {
			out = append(out, p.name)
		}
	}
	return out
}

// Spawned returns the total number of processes and tasks ever spawned.
func (e *Env) Spawned() int { return e.spawned }

// Scheduled returns the total number of events ever scheduled — the
// simulation's work metric, used by the perf harness to report soak sizes
// and events/second.
func (e *Env) Scheduled() uint64 { return e.seq }

// Run executes events in order until the queue is empty or Stop is called.
// If any process panics, Run re-panics with the process's stack trace.
func (e *Env) Run() { e.RunUntil(forever) }

// forever is Run's deadline: later than any event.
const forever = Time(1<<62 - 1)

// RunUntil executes events with timestamps <= deadline, then sets the clock
// to deadline if the simulation got that far. Events after the deadline stay
// queued. A callback panic is re-raised here with its original value, even
// when a process's goroutine held the baton at the time.
func (e *Env) RunUntil(deadline Time) {
	e.stopped = false
	e.deadline = deadline
	if p := e.loop(); p != nil {
		e.resume(p)
		<-e.home
	}
	if r := e.panicked; r != nil {
		e.panicked = nil
		panic(r)
	}
	if !e.stopped && deadline < forever && e.now < deadline {
		e.now = deadline
	}
}

// loop is the baton holder's event loop. It runs events in (time, seq)
// order until one wakes a process, makes that process current and returns
// it; the caller then runs it (or, if it is the caller's own process, just
// returns into it). It returns nil when the baton must go back to RunUntil:
// the queue is empty, the next event is past the deadline, Stop was called,
// or a panic is pending.
func (e *Env) loop() *Proc {
	e.current = nil
	for !e.stopped && e.panicked == nil && len(e.events) > 0 {
		next := e.events[0]
		if next.at > e.deadline {
			return nil
		}
		e.events.pop()
		if next.state == timerCancelled {
			e.deadTimers--
			e.recycle(next)
			continue
		}
		next.state = timerFired
		e.now = next.at
		p := next.proc
		switch {
		case next.ev != nil:
			// WaitTimeout deadline: wake the proc only if it is still
			// parked on the event (a successful removal proves the event
			// has not fired, so the proc observes the timeout).
			if !next.ev.removeWaiter(p) {
				p = nil
			}
		case p == nil:
			next.fn()
		}
		e.recycle(next)
		if p != nil {
			if p.finished {
				panic(fmt.Sprintf("sim: wake of finished proc %q", p.name))
			}
			e.current = p
			return p
		}
	}
	return nil
}

// step is loop for a holder that is a process's goroutine. A callback
// panic must not unwind into the parked process's own code, so it is
// caught here and left for RunUntil to re-raise.
func (e *Env) step() (next *Proc) {
	defer func() {
		if r := recover(); r != nil {
			e.panicked = r
			next = nil
		}
	}()
	return e.loop()
}

// pass hands the baton from a process's goroutine to next's goroutine,
// binding one if next has never run, or back to RunUntil when next is
// nil. After the send the sender must not touch environment state: the
// receiver owns it.
func (e *Env) pass(next *Proc) {
	if next == nil {
		e.home <- struct{}{}
		return
	}
	e.resume(next)
}

// resume binds a worker to p if it has none and wakes that worker.
func (e *Env) resume(p *Proc) {
	if p.w == nil {
		e.bind(p)
	}
	p.w.resume <- struct{}{}
}

// Spawn creates a process executing fn and schedules it to start at the
// current virtual time. The name appears in diagnostics.
func (e *Env) Spawn(name string, fn func(*Proc)) *Proc {
	p := &Proc{
		env:  e,
		name: name,
		fn:   fn,
	}
	p.done.env = e
	e.spawned++
	e.procs = append(e.procs, p)
	e.wake(p)
	return p
}

// Task registers a process-table entry with no goroutine and no function:
// the handle of a state machine whose steps run as event callbacks. Like a
// process it is counted by Spawned and listed by LiveProcs (and so by a
// StallError) in spawn order until it finishes; unlike one it never
// parks, so it cannot Sleep, Wait or Lock. Its owner schedules the first
// step itself and calls Finish after the last.
func (e *Env) Task(name string) *Proc {
	p := &Proc{env: e, name: name}
	p.done.env = e
	e.spawned++
	e.procs = append(e.procs, p)
	return p
}

// Finish retires a task: it fires Done and counts as progress, exactly as
// a process's return does. Finishing a process, or a task twice, panics.
func (p *Proc) Finish() {
	if p.finished || p.fn != nil {
		panic(fmt.Sprintf("sim: Finish of %q, which is not a live task", p.name))
	}
	p.env.finish(p)
}

// finish retires p, a process on the goroutine that ran it (which still
// holds the baton) or a task at its last step. Once finished procs
// outnumber live ones the process table is compacted (preserving spawn
// order of survivors), so week-long fleet runs do not accumulate every
// proc ever spawned and LiveProcs stays O(live). Reaping happens at this
// single deterministic point in event execution, never from a finalizer
// or background task, so it cannot perturb same-seed runs.
func (e *Env) finish(p *Proc) {
	p.finished = true
	if !p.done.fired {
		p.done.Fire()
	}
	p.fn = nil
	p.w = nil
	e.finished++
	e.progress++
	if len(e.procs) >= procCompactMin && e.finished*2 > len(e.procs) {
		e.compactProcs()
	}
}

// bind attaches a worker — a pooled goroutine + resume channel — to a proc
// about to run for the first time. Workers are recycled from finished
// procs, so a simulation that churns through short-lived processes (one
// per client connection, for instance) reuses a small set of goroutines
// whose stacks are already grown instead of paying goroutine creation and
// stack-growth copying on every spawn.
func (e *Env) bind(p *Proc) {
	var w *worker
	if n := len(e.workerFree) - 1; n >= 0 {
		w = e.workerFree[n]
		e.workerFree[n] = nil
		e.workerFree = e.workerFree[:n]
	} else {
		w = &worker{env: e, resume: make(chan struct{})}
		go w.loop()
	}
	w.p = p
	p.w = w
}

// compactProcs rebuilds the process table keeping only live procs, in
// spawn order.
func (e *Env) compactProcs() {
	live := e.procs[:0]
	for _, p := range e.procs {
		if !p.finished {
			live = append(live, p)
		}
	}
	for i := len(live); i < len(e.procs); i++ {
		e.procs[i] = nil
	}
	e.procs = live
	e.finished = 0
}

// worker is a pooled coroutine backing: one goroutine plus its resume
// channel, reused across the lifetimes of many Procs. The goroutine loops
// forever, running proc functions and holding the baton between them, and
// parks itself on the environment's free list once it hands the baton on.
type worker struct {
	env    *Env
	resume chan struct{}
	p      *Proc // proc currently bound; nil while idle
}

// loop is the worker goroutine's body. Each iteration runs one proc to
// completion, retires it, and then runs the event loop as baton holder.
// If the next woken proc has never run, the worker binds it to itself and
// goes round again with no channel operation; otherwise it returns to the
// free list before passing the baton on, while it still owns environment
// state.
func (w *worker) loop() {
	e := w.env
	<-w.resume
	for {
		p := w.p
		w.run(p)
		e.finish(p)
		next := e.step()
		if next != nil && next.w == nil {
			w.p = next
			next.w = w
			continue
		}
		w.p = nil
		e.workerFree = append(e.workerFree, w)
		e.pass(next)
		<-w.resume
	}
}

// run executes the proc function, converting a panic into the
// environment's pending proc error (re-raised by Run).
func (w *worker) run(p *Proc) {
	defer func() {
		if r := recover(); r != nil {
			w.env.panicked = fmt.Errorf("sim: proc %q panicked: %v\n%s", p.name, r, debug.Stack())
		}
	}()
	p.fn(p)
}

// Proc is a simulated process: a coroutine whose blocking operations
// (Sleep, Wait, Queue.Get, Mutex.Lock, PS.Consume) advance virtual time
// instead of wall-clock time. Procs are created with Env.Spawn; Env.Task
// creates one with no goroutine behind it.
type Proc struct {
	env      *Env
	name     string
	w        *worker
	fn       func(*Proc)
	done     Event
	finished bool
	span     int64
}

// SetSpan records the tracing span the process is currently executing
// under. Zero means "no span". Like Env.SetTrace, the core only stores the
// value; interpretation belongs to the tracing layer.
func (p *Proc) SetSpan(id int64) { p.span = id }

// Span returns the process's current tracing span id (0 if none).
func (p *Proc) Span() int64 { return p.span }

// Name returns the diagnostic name given at Spawn time.
func (p *Proc) Name() string { return p.name }

// Env returns the environment the process runs in.
func (p *Proc) Env() *Env { return p.env }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.env.now }

// Done returns an event fired when the process function returns.
func (p *Proc) Done() *Event { return &p.done }

// park suspends the process until an event wakes it. The parking
// goroutine holds the baton, so it runs the event loop itself: a self-wake
// returns with no channel operation, any other wake passes the baton to the
// woken process's goroutine (or back to RunUntil) and waits to be resumed.
func (p *Proc) park() {
	e := p.env
	if e.current != p {
		panic(fmt.Sprintf("sim: proc %q parking while not current", p.name))
	}
	next := e.step()
	if next == p {
		return
	}
	w := p.w
	e.pass(next)
	<-w.resume
}

// Sleep suspends the process for d nanoseconds of virtual time.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("sim: Sleep(%v) with negative duration", d))
	}
	if d == 0 {
		return
	}
	p.env.schedule(p.env.now+d, p, nil, true)
	p.park()
}

// Yield reschedules the process at the current time, letting other events
// at the same timestamp run first.
func (p *Proc) Yield() {
	p.env.wake(p)
	p.park()
}

// Wait suspends the process until ev fires. If ev already fired, Wait
// returns immediately.
func (p *Proc) Wait(ev *Event) {
	if ev.fired {
		return
	}
	ev.addWaiter(p)
	p.park()
}

// WaitAll suspends the process until every event in evs has fired.
func (p *Proc) WaitAll(evs ...*Event) {
	for _, ev := range evs {
		p.Wait(ev)
	}
}

// WaitTimeout suspends the process until ev fires or d elapses, whichever
// comes first, and reports whether the event fired. It is the primitive
// under every RPC timeout in the messaging layer: a deterministic race
// between the reply and the timer.
func (p *Proc) WaitTimeout(ev *Event, d Time) bool {
	if ev.fired {
		return true
	}
	if d < 0 {
		panic(fmt.Sprintf("sim: WaitTimeout(%v) with negative timeout", d))
	}
	ev.addWaiter(p)
	// A timeout timer carries (proc, ev) instead of a closure: when it
	// fires, the event loop wakes p only if removing it from ev's waiter
	// list succeeds — Fire clears the list, so a successful removal proves
	// the event has not fired. After resuming, ev.fired distinguishes the
	// two wake-up reasons. The timer is pooled and the whole path
	// allocates nothing.
	tm := p.env.schedule(p.env.now+d, p, nil, true)
	tm.ev = ev
	a := Alarm{tm, tm.gen}
	p.park()
	if ev.fired {
		// If the reply and the deadline raced at the same timestamp, the
		// timer already fired as a no-op (waiter removal failed) and the
		// Alarm's incarnation check leaves its recycled successor alone.
		a.Cancel()
		return true
	}
	return false
}

// Alarm is a handle on a pooled timer scheduled by Env.Alarm. Unlike a
// Timer it stays safe to hold after the timer fires: a fired timer is
// recycled and may back an unrelated event, so Cancel acts only on the
// incarnation the alarm was set on.
type Alarm struct {
	tm  *Timer
	gen uint64
}

// Alarm schedules fn to run d from now on a pooled timer, like Defer, and
// returns a handle that can cancel it until it fires. It is the
// allocation-free deadline under a callback-style RPC timeout.
func (e *Env) Alarm(d Time, fn func()) Alarm {
	if d < 0 {
		panic(fmt.Sprintf("sim: Alarm(%v) with negative delay", d))
	}
	tm := e.schedule(e.now+d, nil, fn, true)
	return Alarm{tm, tm.gen}
}

// Cancel stops the alarm if it has not fired yet; otherwise it does
// nothing. The zero Alarm is never set, and cancelling it is a no-op.
func (a Alarm) Cancel() {
	if a.tm != nil && a.tm.gen == a.gen {
		a.tm.Cancel()
	}
}

// Event is a one-shot broadcast signal. Construct with Env.NewEvent. Firing
// wakes all waiting processes (in wait order) and runs registered callbacks.
//
// The first waiter is stored inline: the overwhelmingly common case — an
// RPC reply event with exactly one blocked caller — allocates no waiter
// list at all.
type Event struct {
	env   *Env
	fired bool
	w0    *Proc   // first waiter (nil when no waiters)
	more  []*Proc // additional waiters, in arrival order
	cbs   []func()
}

// NewEvent returns an unfired event bound to the environment.
func (e *Env) NewEvent() *Event { return &Event{env: e} }

// Fired reports whether the event has been fired.
func (ev *Event) Fired() bool { return ev.fired }

// addWaiter appends p to the waiter list. Invariant: w0 holds the
// longest-waiting proc whenever any waiter exists.
func (ev *Event) addWaiter(p *Proc) {
	if ev.w0 == nil {
		ev.w0 = p
	} else {
		ev.more = append(ev.more, p)
	}
}

// removeWaiter deletes p from the waiter list, preserving arrival order of
// the rest, and reports whether p was waiting.
func (ev *Event) removeWaiter(p *Proc) bool {
	if ev.w0 == p {
		if n := len(ev.more); n > 0 {
			ev.w0 = ev.more[0]
			copy(ev.more, ev.more[1:])
			ev.more[n-1] = nil
			ev.more = ev.more[:n-1]
		} else {
			ev.w0 = nil
		}
		return true
	}
	for i, w := range ev.more {
		if w == p {
			n := len(ev.more)
			copy(ev.more[i:], ev.more[i+1:])
			ev.more[n-1] = nil
			ev.more = ev.more[:n-1]
			return true
		}
	}
	return false
}

// Fire triggers the event. Firing twice panics: one-shot events firing more
// than once almost always indicate a protocol bug in the caller.
func (ev *Event) Fire() {
	if ev.fired {
		panic("sim: event fired twice")
	}
	ev.fired = true
	if ev.w0 != nil {
		ev.env.wake(ev.w0)
		ev.w0 = nil
	}
	for _, w := range ev.more {
		ev.env.wake(w)
	}
	ev.more = nil
	for _, cb := range ev.cbs {
		ev.env.schedule(ev.env.now, nil, cb, true)
	}
	ev.cbs = nil
}

// OnFire registers fn to run (as an event-loop callback) when the event
// fires. If the event already fired, fn is scheduled immediately.
func (ev *Event) OnFire(fn func()) {
	if ev.fired {
		ev.env.schedule(ev.env.now, nil, fn, true)
		return
	}
	ev.cbs = append(ev.cbs, fn)
}

// Mutex is a FIFO-fair lock for processes and callbacks: procs blocked
// in Lock and callbacks queued by LockFunc wait in one FIFO. The zero
// value is not usable; construct with NewMutex.
type Mutex struct {
	env     *Env
	locked  bool
	waiters ring[lockWaiter]
}

// lockWaiter is a queued Lock (a proc to wake) or LockFunc (a callback to
// run).
type lockWaiter struct {
	p  *Proc
	fn func()
}

// NewMutex returns an unlocked mutex bound to the environment.
func (e *Env) NewMutex() *Mutex { return &Mutex{env: e} }

// Lock acquires the mutex, blocking the process in FIFO order.
func (m *Mutex) Lock(p *Proc) {
	if !m.locked {
		m.locked = true
		return
	}
	m.waiters.push(lockWaiter{p: p})
	p.park()
	// Ownership was transferred to us by Unlock; m.locked stays true.
}

// LockFunc acquires the mutex for a callback: if the mutex is free, it
// takes it and runs fn at once; otherwise fn joins the FIFO and runs as an
// event callback at the point Unlock would have woken a blocked process.
// fn holds the mutex and must Unlock it when done.
func (m *Mutex) LockFunc(fn func()) {
	if !m.locked {
		m.locked = true
		fn()
		return
	}
	m.waiters.push(lockWaiter{fn: fn})
}

// Unlock releases the mutex, handing it to the longest waiter if any.
// Unlocking an unlocked mutex panics.
func (m *Mutex) Unlock() {
	if !m.locked {
		panic("sim: unlock of unlocked mutex")
	}
	if m.waiters.len() == 0 {
		m.locked = false
		return
	}
	if w := m.waiters.pop(); w.p != nil {
		m.env.wake(w.p)
	} else {
		m.env.Defer(0, w.fn)
	}
}

// Locked reports whether the mutex is currently held.
func (m *Mutex) Locked() bool { return m.locked }
