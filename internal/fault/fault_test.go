package fault

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"syscall"
	"testing"
)

func TestDisarmedHitIsFree(t *testing.T) {
	if err := Hit("nobody.armed.this"); err != nil {
		t.Fatalf("disarmed Hit = %v, want nil", err)
	}
}

func TestArmedTracksEnabledPoints(t *testing.T) {
	if Armed() {
		t.Fatal("Armed before any point is enabled")
	}
	disable := Enable("p.armed", Spec{Count: 1})
	if !Armed() {
		t.Fatal("not Armed with a point enabled")
	}
	Hit("p.armed") // trips once and disarms
	if Armed() {
		t.Error("Armed after the point's only trip disarmed it")
	}
	disable()
	Enable("p.armed", Spec{})
	Disable("p.armed")
	if Armed() {
		t.Error("Armed after Disable")
	}
}

func TestErrorModeDefaultsToErrInjected(t *testing.T) {
	defer Enable("p.default", Spec{})()
	err := Hit("p.default")
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("Hit = %v, want ErrInjected", err)
	}
	if Trips("p.default") != 1 {
		t.Fatalf("Trips = %d, want 1", Trips("p.default"))
	}
}

func TestCustomErrorPassesThroughUnwrapped(t *testing.T) {
	boom := errors.New("custom boom")
	defer Enable("p.custom", Spec{Err: boom})()
	if err := Hit("p.custom"); !errors.Is(err, boom) {
		t.Fatalf("Hit = %v, want custom error", err)
	}
}

func TestSkipPassesThroughFirstHits(t *testing.T) {
	defer Enable("p.skip", Spec{Skip: 2})()
	for i := 0; i < 2; i++ {
		if err := Hit("p.skip"); err != nil {
			t.Fatalf("hit %d tripped during skip window: %v", i, err)
		}
	}
	if err := Hit("p.skip"); err == nil {
		t.Fatal("hit after skip window did not trip")
	}
	if got := Trips("p.skip"); got != 1 {
		t.Fatalf("Trips = %d, want 1 (skipped hits don't count)", got)
	}
}

func TestCountAutoDisarms(t *testing.T) {
	defer Enable("p.count", Spec{Count: 2})()
	for i := 0; i < 2; i++ {
		if err := Hit("p.count"); err == nil {
			t.Fatalf("hit %d did not trip", i)
		}
	}
	if err := Hit("p.count"); err != nil {
		t.Fatalf("point still armed after Count trips: %v", err)
	}
	// The trip count survives the auto-disarm for post-hoc assertions.
	if got := Trips("p.count"); got != 2 {
		t.Fatalf("Trips = %d, want 2", got)
	}
}

func TestPanicMode(t *testing.T) {
	defer Enable("p.panic", Spec{Mode: ModePanic})()
	defer func() {
		r := recover()
		ip, ok := r.(InjectedPanic)
		if !ok {
			t.Fatalf("recovered %v (%T), want InjectedPanic", r, r)
		}
		if ip.Point != "p.panic" {
			t.Fatalf("panic point = %q, want p.panic", ip.Point)
		}
	}()
	Hit("p.panic")
	t.Fatal("Hit did not panic")
}

func TestDisableScopesToOnePoint(t *testing.T) {
	disableA := Enable("p.a", Spec{})
	defer Enable("p.b", Spec{})()
	disableA()
	if err := Hit("p.a"); err != nil {
		t.Fatalf("disabled point still trips: %v", err)
	}
	if err := Hit("p.b"); err == nil {
		t.Fatal("unrelated point was disarmed")
	}
}

func TestResetDisarmsEverything(t *testing.T) {
	Enable("p.r1", Spec{})
	Enable("p.r2", Spec{})
	Reset()
	if err := Hit("p.r1"); err != nil {
		t.Fatalf("point armed after Reset: %v", err)
	}
	if Trips("p.r2") != 0 {
		t.Fatal("trip counts survived Reset")
	}
}

func TestConcurrentHitsTripExactly(t *testing.T) {
	defer Enable("p.conc", Spec{Count: 10})()
	var wg sync.WaitGroup
	var tripped sync.Map
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := Hit("p.conc"); err != nil {
				tripped.Store(i, true)
			}
		}(i)
	}
	wg.Wait()
	n := 0
	tripped.Range(func(_, _ any) bool { n++; return true })
	if n != 10 {
		t.Fatalf("%d goroutines saw a trip, want exactly Count=10", n)
	}
}

func TestClassification(t *testing.T) {
	base := errors.New("boom")
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"unmarked default", base, false},
		{"transient mark", Transient(base), true},
		{"permanent mark", Permanent(base), false},
		{"wrapped transient", fmt.Errorf("outer: %w", Transient(base)), true},
		{"outermost mark wins", Permanent(fmt.Errorf("retried out: %w", Transient(base))), false},
		{"deadline", context.DeadlineExceeded, true},
		{"canceled is not retryable", context.Canceled, false},
		{"enospc", fmt.Errorf("write: %w", syscall.ENOSPC), true},
		{"eio", fmt.Errorf("read: %w", syscall.EIO), true},
	}
	for _, c := range cases {
		if got := IsTransient(c.err); got != c.want {
			t.Errorf("%s: IsTransient = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestClassifiedUnwrapsToOriginal(t *testing.T) {
	base := errors.New("boom")
	if !errors.Is(Transient(base), base) {
		t.Fatal("Transient hides the wrapped error from errors.Is")
	}
	if !errors.Is(Permanent(fmt.Errorf("x: %w", base)), base) {
		t.Fatal("Permanent hides the wrapped chain from errors.Is")
	}
	if Transient(nil) != nil || Permanent(nil) != nil {
		t.Fatal("classifying nil must return nil")
	}
}
