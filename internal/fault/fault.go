// Package fault is the repo's single fault-injection registry: every
// package that wants a testable failure site declares a named failpoint
// and calls Hit at the site; tests arm points by name with Enable. It
// replaces the ad-hoc per-package failpoint mechanisms that used to live
// in fsutil, stream, results and policy — one registry means chaos tests
// can compose faults across layers (a store write failing while a trace
// decodes garbage) without knowing each package's private test hooks,
// and a ci.sh grep-gate keeps new private failpoints from reappearing.
//
// A disarmed registry costs one atomic load per Hit, so failpoints are
// safe on hot paths; a site that would call Hit once per item of a batch
// (the trace decoder, once per record) checks Armed once instead.
//
// The package also owns the repo's failure taxonomy: Transient and
// Permanent wrap errors with a retry classification, and IsTransient is
// the single predicate the serve worker consults before retrying. See DESIGN.md "Fault model and
// recovery".
package fault

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Mode selects what a tripped failpoint does.
type Mode int

const (
	// ModeError returns Spec.Err from Hit (the default).
	ModeError Mode = iota
	// ModePanic panics with an InjectedPanic value, simulating a crash in
	// the instrumented code path.
	ModePanic
)

// Spec describes an armed failpoint.
type Spec struct {
	// Mode is what the point does when it trips (default ModeError).
	Mode Mode
	// Err is the error ModeError returns; nil defaults to a wrapped
	// ErrInjected. Wrap it with Transient to exercise retry paths.
	Err error
	// Skip passes through the first Skip hits before the point starts
	// tripping (reach "the Nth write" without tripping earlier ones).
	Skip int
	// Count disarms the point after it has tripped Count times; 0 means
	// it trips until disabled.
	Count int
}

// ErrInjected is the sentinel wrapped by every default injected error,
// so tests can assert errors.Is(err, fault.ErrInjected) without caring
// which point fired.
var ErrInjected = errors.New("injected fault")

// InjectedPanic is the value a ModePanic failpoint panics with;
// recover-based crash tests can distinguish it from a real bug.
type InjectedPanic struct{ Point string }

func (p InjectedPanic) String() string { return "fault: injected panic at " + p.Point }

// point is one armed failpoint's state.
type point struct {
	spec  Spec
	skip  int
	trips int
}

var (
	mu     sync.Mutex
	points map[string]*point
	// trips survives auto-disarm and Disable so tests can assert how
	// often a point fired after the fact; Enable and Reset zero it.
	tripCounts map[string]int64
	// armed is the lock-free fast path: zero means no point is enabled
	// anywhere, so Hit returns before touching the mutex.
	armed atomic.Int32
)

// Enable arms the named failpoint with spec (replacing any previous
// arming and zeroing its trip count) and returns a disable func for
// defer-based per-test scoping.
func Enable(name string, spec Spec) (disable func()) {
	if spec.Mode == ModeError && spec.Err == nil {
		spec.Err = fmt.Errorf("%s: %w", name, ErrInjected)
	}
	mu.Lock()
	if points == nil {
		points = make(map[string]*point)
		tripCounts = make(map[string]int64)
	}
	if _, ok := points[name]; !ok {
		armed.Add(1)
	}
	points[name] = &point{spec: spec, skip: spec.Skip}
	tripCounts[name] = 0
	mu.Unlock()
	return func() { Disable(name) }
}

// Disable disarms the named failpoint; its trip count remains readable.
func Disable(name string) {
	mu.Lock()
	if _, ok := points[name]; ok {
		delete(points, name)
		armed.Add(-1)
	}
	mu.Unlock()
}

// Reset disarms every failpoint and zeroes all trip counts — test
// teardown for suites that arm several points.
func Reset() {
	mu.Lock()
	armed.Add(-int32(len(points)))
	points = nil
	tripCounts = nil
	mu.Unlock()
}

// Trips reports how many times the named point has tripped since it was
// last enabled (auto-disarm and Disable do not clear it).
func Trips(name string) int64 {
	mu.Lock()
	defer mu.Unlock()
	return tripCounts[name]
}

// Armed reports whether any failpoint is enabled. While none is, every
// Hit returns nil, so a site can skip a loop of Hit calls on one check.
func Armed() bool { return armed.Load() != 0 }

// Hit is the instrumented-site call: it reports the injected error (or
// panics) when the named point is armed and due, and returns
// nil otherwise. Production callers treat a non-nil return exactly like
// a real failure of the operation the point guards.
func Hit(name string) error {
	if !Armed() {
		return nil
	}
	mu.Lock()
	pt := points[name]
	if pt == nil {
		mu.Unlock()
		return nil
	}
	if pt.skip > 0 {
		pt.skip--
		mu.Unlock()
		return nil
	}
	pt.trips++
	tripCounts[name]++
	spec := pt.spec
	if spec.Count > 0 && pt.trips >= spec.Count {
		delete(points, name)
		armed.Add(-1)
	}
	mu.Unlock()

	switch spec.Mode {
	case ModePanic:
		panic(InjectedPanic{Point: name}) // fault: injected panic
	default:
		return spec.Err
	}
}
