// Package monitor implements AN1/AN2 link fault monitoring (paper §2):
// switch software regularly pings each neighbor and declares a link dead
// when too many pings fail. A dead link recovers only after its error rate
// stays acceptably low for long enough.
//
// Because each working↔dead transition triggers a network-wide
// reconfiguration, an intermittently faulty link could keep the network
// from providing service. The skeptic module prevents this: it retains a
// history of the link's failures, and each recurrence escalates the length
// of error-free operation required before the link is believed again.
package monitor

import (
	"fmt"
)

// State is the link state the skeptic reports to reconfiguration. The
// reconfiguration algorithm assumes each link is unambiguously working or
// dead; the skeptic provides that clean abstraction over flaky hardware.
type State int

const (
	// Working: the link carries traffic; its state changes only after
	// enough ping failures.
	Working State = iota + 1
	// Proving: the link looked dead and is now accumulating error-free
	// time; it is still reported dead to the rest of the system.
	Proving
	// Dead: the link is down and not currently passing pings.
	Dead
)

// String names the state.
func (s State) String() string {
	switch s {
	case Working:
		return "working"
	case Proving:
		return "proving"
	case Dead:
		return "dead"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Event is a state transition visible to the reconfiguration layer.
type Event struct {
	// AtUS is the virtual time of the transition.
	AtUS int64
	// Up is true for dead→working, false for working→dead. Each such
	// transition triggers a reconfiguration.
	Up bool
	// Level is the skepticism level at the time of the event.
	Level int
}

// Config tunes the skeptic.
type Config struct {
	// FailThreshold is the number of consecutive ping failures that
	// declare a working link dead (default 3).
	FailThreshold int
	// BaseWaitUS is the error-free proving period required after the
	// first failure (default 100_000 µs = 100 ms).
	BaseWaitUS int64
	// MaxWaitUS caps the escalated proving period (default 60 s).
	MaxWaitUS int64
	// DecayUS is the length of trouble-free working time after which one
	// level of skepticism is forgiven (default 10× BaseWaitUS).
	DecayUS int64
	// Skeptical enables escalation. With Skeptical=false the proving
	// period is always BaseWaitUS — the naive policy the skeptic exists
	// to replace (used as the experiment baseline).
	Skeptical bool
}

func (c Config) withDefaults() Config {
	if c.FailThreshold <= 0 {
		c.FailThreshold = 3
	}
	if c.BaseWaitUS <= 0 {
		c.BaseWaitUS = 100_000
	}
	if c.MaxWaitUS <= 0 {
		c.MaxWaitUS = 60_000_000
	}
	if c.DecayUS <= 0 {
		c.DecayUS = 10 * c.BaseWaitUS
	}
	return c
}

// Skeptic tracks one link. Create with New. It is driven by explicit
// ping observations carrying virtual timestamps (monotone non-decreasing).
type Skeptic struct {
	cfg   Config
	state State
	// level is the skepticism level: each failure recurrence increments
	// it; prolonged good behavior decays it.
	level int
	// consecutiveFails counts ping failures while Working.
	consecutiveFails int
	// provingSince is when the current error-free proving run began.
	provingSince int64
	// goodSince is when the link last entered Working (for decay).
	goodSince int64
	events    []Event
}

// New creates a skeptic for one link, initially Working at time 0.
func New(cfg Config) *Skeptic {
	return &Skeptic{cfg: cfg.withDefaults(), state: Working}
}

// State returns the current link state.
func (s *Skeptic) State() State { return s.state }

// Level returns the current skepticism level.
func (s *Skeptic) Level() int { return s.level }

// Events returns all transitions so far (each corresponds to a triggered
// reconfiguration).
func (s *Skeptic) Events() []Event {
	return append([]Event(nil), s.events...)
}

// Transitions returns the number of up/down transitions so far.
func (s *Skeptic) Transitions() int { return len(s.events) }

// RequiredWaitUS returns the error-free period currently required before a
// recovery is believed: BaseWait × 2^(level-1), capped at MaxWait. With
// Skeptical=false it is always BaseWait.
func (s *Skeptic) RequiredWaitUS() int64 {
	if !s.cfg.Skeptical || s.level <= 1 {
		return s.cfg.BaseWaitUS
	}
	w := s.cfg.BaseWaitUS
	for i := 1; i < s.level; i++ {
		w *= 2
		if w >= s.cfg.MaxWaitUS {
			return s.cfg.MaxWaitUS
		}
	}
	return w
}

// PingOK reports a successful ping at virtual time nowUS.
func (s *Skeptic) PingOK(nowUS int64) {
	switch s.state {
	case Working:
		s.consecutiveFails = 0
		s.decay(nowUS)
	case Dead:
		// First sign of life: begin proving.
		s.state = Proving
		s.provingSince = nowUS
	case Proving:
		if nowUS-s.provingSince >= s.RequiredWaitUS() {
			s.state = Working
			s.consecutiveFails = 0
			s.goodSince = nowUS
			s.events = append(s.events, Event{AtUS: nowUS, Up: true, Level: s.level})
		}
	}
}

// PingFail reports a failed ping at virtual time nowUS.
func (s *Skeptic) PingFail(nowUS int64) {
	switch s.state {
	case Working:
		s.decay(nowUS)
		s.consecutiveFails++
		if s.consecutiveFails >= s.cfg.FailThreshold {
			s.state = Dead
			s.level++
			s.events = append(s.events, Event{AtUS: nowUS, Up: false, Level: s.level})
		}
	case Proving:
		// Failure during proving: back to dead, escalate skepticism —
		// this is the recurrence the skeptic punishes.
		s.state = Dead
		s.level++
	case Dead:
		// Still dead; nothing changes.
	}
}

// decay forgives one level of skepticism per DecayUS of trouble-free
// working time.
func (s *Skeptic) decay(nowUS int64) {
	for s.level > 0 && nowUS-s.goodSince >= s.cfg.DecayUS {
		s.level--
		s.goodSince += s.cfg.DecayUS
	}
}

// FaultFunc models link hardware: it reports whether the link delivers a
// correct ping acknowledgment at the given time.
type FaultFunc func(nowUS int64) bool

// Flapping models an intermittent fault: the link alternates goodUS of
// health with badUS of failure.
func Flapping(goodUS, badUS int64) FaultFunc {
	period := goodUS + badUS
	return func(nowUS int64) bool {
		return nowUS%period < goodUS
	}
}

// DriveResult summarizes a simulated monitoring run.
type DriveResult struct {
	// Reconfigurations is the number of state transitions (each triggers
	// a network reconfiguration).
	Reconfigurations int
	// FinalState is the link state at the end.
	FinalState State
	// FinalLevel is the skepticism level at the end.
	FinalLevel int
	// UpFractionUS is the virtual time the link spent in Working state.
	UpFractionUS int64
}

// Drive runs the skeptic against a fault model, pinging every
// pingIntervalUS from 0 to durationUS, and reports the transition count —
// the cost a flapping link imposes on the network (experiment E15).
func Drive(s *Skeptic, fault FaultFunc, pingIntervalUS, durationUS int64) DriveResult {
	var up int64
	for now := int64(0); now <= durationUS; now += pingIntervalUS {
		if s.state == Working {
			up += pingIntervalUS
		}
		if fault(now) {
			s.PingOK(now)
		} else {
			s.PingFail(now)
		}
	}
	return DriveResult{
		Reconfigurations: s.Transitions(),
		FinalState:       s.State(),
		FinalLevel:       s.Level(),
		UpFractionUS:     up,
	}
}
