package harness

import (
	"fmt"

	"ppsim/internal/fabric"
	"ppsim/internal/traffic"
)

// Engine selects Drive's slot-execution core. The zero value (EngineAuto)
// picks the fastest core the run is eligible for, so callers that never set
// the field keep getting bit-identical results at the best available speed.
type Engine int

const (
	// EngineAuto runs the event-driven core when the run qualifies
	// (untraced, a Lookahead source, an IdleInvariant algorithm) and the
	// stepped core otherwise.
	EngineAuto Engine = iota
	// EngineStepped forces the referee: every slot executes through the
	// fabric's full Step.
	EngineStepped
	// EngineFastForward is the stepped referee plus idle jumps: every
	// executed slot runs Step, and a slot on which both switches are empty
	// and no arrival or fault is due jumps the clock to the next event. It
	// falls back to plain stepped (with Result.EngineReason set) when the
	// run does not qualify.
	EngineFastForward
	// EngineEvent forces the event-driven core, degrading to stepped (with
	// Result.EngineReason set) when the run does not qualify.
	EngineEvent
)

// String returns the flag-friendly name ("auto", "stepped", "fastforward",
// "event").
func (e Engine) String() string {
	switch e {
	case EngineAuto:
		return "auto"
	case EngineStepped:
		return "stepped"
	case EngineFastForward:
		return "fastforward"
	case EngineEvent:
		return "event"
	}
	return fmt.Sprintf("Engine(%d)", int(e))
}

// ParseEngine maps a CLI flag value to an Engine.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "auto":
		return EngineAuto, nil
	case "stepped":
		return EngineStepped, nil
	case "fastforward":
		return EngineFastForward, nil
	case "event":
		return EngineEvent, nil
	}
	return EngineAuto, fmt.Errorf("harness: unknown engine %q (want auto, stepped, fastforward or event)", s)
}

// selectEngine resolves the requested engine against the run's eligibility
// and returns the effective engine (never EngineAuto) and — when the choice
// is a degradation from what was requested (or, under EngineAuto, from the
// event core) — the human-readable reason, surfaced as Result.EngineReason.
//
// Idle jumps (fastforward) and the event core have the same eligibility: an
// untraced run, a traffic.Lookahead source and a demux.IdleInvariant
// algorithm. A run that fails it steps every slot.
func selectEngine(pps *fabric.PPS, src traffic.Source, opts Options) (Engine, string) {
	if opts.Engine == EngineStepped && !opts.FastForward {
		return EngineStepped, ""
	}
	why := ""
	switch _, look := src.(traffic.Lookahead); {
	case opts.Tracer != nil:
		why = "tracer attached: the event stream is inherently per-slot"
	case !look:
		why = "source does not implement traffic.Lookahead"
	case !pps.IdleInvariant():
		why = "algorithm " + pps.Algorithm().Name() + " does not certify demux.IdleInvariant"
	}
	if why != "" {
		return EngineStepped, why
	}
	if opts.Engine == EngineStepped || opts.Engine == EngineFastForward {
		return EngineFastForward, ""
	}
	return EngineEvent, ""
}
