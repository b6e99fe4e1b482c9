package msg

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/sim"
)

// callStyle issues one request from node 0 to node 1's "svc" and runs
// resumed when the caller continues: from a process (Call, CallTimeout)
// or as a callback (CallFunc, CallFuncTimeout). resumed receives the
// reply, nil on a timeout.
type callStyle func(env *sim.Env, l *Layer, timeout sim.Time, resumed func(r *Message))

func procCall(env *sim.Env, l *Layer, timeout sim.Time, resumed func(*Message)) {
	env.Spawn("caller", func(p *sim.Proc) {
		if timeout == 0 {
			resumed(l.Call(p, 0, 1, "svc", "req", 16, nil))
			return
		}
		r, _ := l.CallTimeout(p, 0, 1, "svc", "req", 16, nil, timeout)
		resumed(r)
	})
}

func funcCall(env *sim.Env, l *Layer, timeout sim.Time, resumed func(*Message)) {
	env.Defer(0, func() {
		var m *Message
		then := func() { resumed(m.Response()) }
		if timeout == 0 {
			m = l.CallFunc(0, 0, 1, "svc", "req", 16, nil, then)
		} else {
			m = l.CallFuncTimeout(0, 0, 1, "svc", "req", 16, nil, timeout, then)
		}
	})
}

// resumeLog runs one call in the given style and logs, with virtual time
// and the environment's event count, the caller's resumption and a probe
// event. probeAt schedules the probe so that it shares the resumption's
// timestamp and lands between the event that completes the call (reply
// delivery or deadline) and the point a woken process would run.
func resumeLog(style callStyle, reply bool, timeout sim.Time, probeAt func(env *sim.Env, probe func())) (log []string, resumedAt sim.Time) {
	env := sim.NewEnv()
	l := newTestLayer(env)
	l.Handle(1, "svc", func(m *Message) {
		if reply {
			m.Reply(64, "pong")
		}
	})
	note := func(s string) { log = append(log, fmt.Sprintf("%v #%d %s", env.Now(), env.Scheduled(), s)) }
	style(env, l, timeout, func(r *Message) {
		resumedAt = env.Now()
		if r != nil {
			note(fmt.Sprintf("resumed with %v", r.Payload))
		} else {
			note("resumed without reply")
		}
	})
	if probeAt != nil {
		probeAt(env, func() { note("probe") })
	}
	env.Run()
	return log, resumedAt
}

// TestCallFuncResumesWhereCallDoes is differential: a CallFunc
// continuation must run at the same (time, seq) point where Call's
// process resumes, relative to a third event at the same time. The probe
// is queued at the reply's delivery time just after the delivery hop, so
// a continuation run straight from delivery would precede it, and one
// deferred twice would follow a later event.
func TestCallFuncResumesWhereCallDoes(t *testing.T) {
	_, at := resumeLog(procCall, true, 0, nil)
	hl := DefaultParams().HandlerLat
	probeAt := func(env *sim.Env, probe func()) {
		// At at-hl this runs before the reply's fabric arrival hop, and
		// the Defer(0) after it, so the probe is queued after the
		// delivery hop at the same time.
		env.At(at-hl, func() { env.Defer(0, func() { env.Defer(hl, probe) }) })
	}
	want, _ := resumeLog(procCall, true, 0, probeAt)
	got, _ := resumeLog(funcCall, true, 0, probeAt)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("CallFunc log %q, Call log %q", got, want)
	}
	if len(want) != 2 || want[0][len(want[0])-5:] != "probe" {
		t.Fatalf("probe did not land before the resumption: %q", want)
	}
}

// TestCallFuncTimeoutResumesWhereCallTimeoutDoes: on a deadline the
// callback runs inside the deadline's own timer event, as CallTimeout's
// process does, so a probe queued at the deadline just after the call
// runs after it.
func TestCallFuncTimeoutResumesWhereCallTimeoutDoes(t *testing.T) {
	const timeout = 50 * sim.Microsecond
	probeAt := func(env *sim.Env, probe func()) {
		env.Defer(0, func() { env.Defer(timeout, probe) })
	}
	want, _ := resumeLog(procCall, false, timeout, probeAt)
	got, _ := resumeLog(funcCall, false, timeout, probeAt)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("CallFuncTimeout log %q, CallTimeout log %q", got, want)
	}
	if len(want) != 2 || want[1][len(want[1])-5:] != "probe" {
		t.Fatalf("probe ran before the timed-out resumption: %q", want)
	}
	// A reply that beats the deadline resumes the caller the same way.
	got, _ = resumeLog(funcCall, true, timeout, nil)
	want, _ = resumeLog(procCall, true, timeout, nil)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("answered CallFuncTimeout log %q, CallTimeout log %q", got, want)
	}
}

// dupReplies duplicates every reply.
type dupReplies struct{}

func (dupReplies) MsgOutcome(from, to int, service, kind string) MsgOutcome {
	return MsgOutcome{Duplicate: kind == "req.reply"}
}

// TestCallFuncDuplicateReplyDropped: a duplicated reply to a CallFunc is
// dropped at the requester and counted; the continuation runs once.
func TestCallFuncDuplicateReplyDropped(t *testing.T) {
	env := sim.NewEnv()
	l := newTestLayer(env)
	l.SetFilter(dupReplies{})
	l.Handle(1, "svc", func(m *Message) { m.Reply(64, "pong") })
	runs := 0
	env.Defer(0, func() {
		var m *Message
		m = l.CallFunc(0, 0, 1, "svc", "req", 16, nil, func() {
			runs++
			if r := m.Response(); r == nil || r.Payload != "pong" {
				t.Errorf("response %+v, want pong", r)
			}
		})
	})
	env.Run()
	if runs != 1 {
		t.Fatalf("continuation ran %d times, want 1", runs)
	}
	if fs := l.FaultStats(); fs.Duplicated != 1 || fs.DupRepliesDropped != 1 {
		t.Fatalf("fault stats %+v, want one duplicate reply dropped", fs)
	}
}

// TestCallFuncTimeoutDropsLateReply: a reply delayed past the deadline
// is dropped; the continuation runs once, at the deadline, with no
// response, and the expiry is counted.
func TestCallFuncTimeoutDropsLateReply(t *testing.T) {
	env := sim.NewEnv()
	l := newTestLayer(env)
	replied := false
	l.Handle(1, "svc", func(m *Message) {
		env.Defer(100*sim.Microsecond, func() { replied = true; m.Reply(64, "late") })
	})
	var at []sim.Time
	env.Defer(0, func() {
		var m *Message
		m = l.CallFuncTimeout(0, 0, 1, "svc", "req", 16, nil, 20*sim.Microsecond, func() {
			at = append(at, env.Now())
			if r := m.Response(); r != nil {
				t.Errorf("response %+v after the deadline, want nil", r)
			}
		})
	})
	env.Run()
	if !replied || len(at) != 1 || at[0] != 20*sim.Microsecond {
		t.Fatalf("replied %v, continuation ran at %v, want once at 20us", replied, at)
	}
	if fs := l.FaultStats(); fs.Timeouts != 1 {
		t.Fatalf("fault stats %+v, want one timeout", fs)
	}
}
