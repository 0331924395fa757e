package serve

import (
	"sync"
	"time"

	"pythia/internal/api"
	"pythia/internal/obs"
)

// breaker is a per-store circuit breaker: consecutive persist failures
// past a threshold open it, flipping the server into degraded read-only
// mode for that store — admissions that would need a fresh write are
// shed with 503 + Retry-After while store hits keep flowing. After a
// cooldown the breaker lets work through again (logically half-open);
// the next persist outcome either closes it or restarts the cooldown.
//
// There is no explicit half-open state to get stuck in: "open with an
// elapsed cooldown" admits probes, and only a recorded success closes
// the breaker. With one job at a time per worker at most one probe runs
// at a time anyway.
type breaker struct {
	name     string
	cooldown time.Duration

	mu       sync.Mutex
	fails    int // consecutive failures
	isOpen   bool
	openedAt time.Time
	lastErr  string
	trips    int64 // times the breaker opened
}

// breakerThreshold is how many consecutive persist failures open a
// store's breaker.
const breakerThreshold = 3

func newBreaker(name string, cooldown time.Duration) *breaker {
	return &breaker{name: name, cooldown: cooldown}
}

// register exposes the breaker's state on the default registry
// (func-backed, so a newer Server's breakers replace an older one's).
func (b *breaker) register() {
	lbl := obs.L("store", b.name)
	obs.RegisterGaugeFunc("pythia_serve_breaker_open",
		"1 while the store's circuit breaker is open (degraded read-only).", lbl,
		func() float64 {
			if b.open() {
				return 1
			}
			return 0
		})
	obs.RegisterCounterFunc("pythia_serve_breaker_trips_total",
		"Times the store's circuit breaker opened.", lbl,
		func() float64 {
			b.mu.Lock()
			defer b.mu.Unlock()
			return float64(b.trips)
		})
}

// recordFailure counts a persist failure; reaching the threshold opens
// the breaker, and failures while open push the cooldown out (the store
// is demonstrably still sick).
func (b *breaker) recordFailure(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails++
	if err != nil {
		b.lastErr = err.Error()
	}
	if !b.isOpen && b.fails >= breakerThreshold {
		b.isOpen = true
		b.trips++
	}
	if b.isOpen {
		b.openedAt = time.Now()
	}
}

// recordSuccess closes the breaker: one healthy persist proves the
// store recovered.
func (b *breaker) recordSuccess() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails = 0
	b.isOpen = false
	b.lastErr = ""
}

// allow reports whether work that needs a store write may be admitted:
// always when closed, and again once the cooldown has elapsed (the
// half-open probe window).
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return !b.isOpen || time.Since(b.openedAt) >= b.cooldown
}

// open reports whether the breaker is open (the store is degraded).
func (b *breaker) open() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.isOpen
}

// retryAfter is the whole-second hint for the Retry-After header: the
// remaining cooldown, at least one second.
func (b *breaker) retryAfter() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.isOpen {
		return 1
	}
	rem := b.cooldown - time.Since(b.openedAt)
	secs := int((rem + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// view snapshots the breaker for /healthz.
func (b *breaker) view() api.BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	state := "closed"
	if b.isOpen {
		state = "open"
		if time.Since(b.openedAt) >= b.cooldown {
			state = "half-open"
		}
	}
	return api.BreakerState{
		State:               state,
		ConsecutiveFailures: b.fails,
		Trips:               b.trips,
		LastError:           b.lastErr,
	}
}
