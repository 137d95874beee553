// Package load is the open-loop traffic harness behind cmd/qoload.
//
// The defining property is *open-loop* scheduling: every request's
// send time is computed in advance from the phase's rate function, and
// latency is measured from that scheduled instant — not from whenever
// the client got around to sending. A closed-loop driver (send, wait,
// send again) silently slows down when the server stalls, so the stall
// never shows up in its percentiles; that distortion is coordinated
// omission, and this package exists to not have it
// (TestCoordinatedOmission measures the gap against a closed-loop
// reference arm).
package load

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Shape is a phase's rate curve.
type Shape string

const (
	// ShapeConstant holds Low ops/s for the whole phase.
	ShapeConstant Shape = "constant"
	// ShapeRamp moves linearly from Low to High ops/s.
	ShapeRamp Shape = "ramp"
	// ShapeDiurnal traces one sinusoidal trough→peak→trough cycle
	// between Low and High — a compressed day of traffic.
	ShapeDiurnal Shape = "diurnal"
	// ShapeFlash serves Low except for the middle third of the phase,
	// which jumps to High instantly — a flash crowd.
	ShapeFlash Shape = "flash"
)

// Phase is one segment of a load plan.
type Phase struct {
	Name     string
	Shape    Shape
	Duration time.Duration
	// Low and High bound the rate curve in ops/s; ShapeConstant uses
	// only Low.
	Low, High float64
}

// RateAt evaluates the phase's rate curve at offset t ∈ [0, Duration).
func (p Phase) RateAt(t time.Duration) float64 {
	x := float64(t) / float64(p.Duration)
	switch p.Shape {
	case ShapeRamp:
		return p.Low + (p.High-p.Low)*x
	case ShapeDiurnal:
		return p.Low + (p.High-p.Low)*(1-math.Cos(2*math.Pi*x))/2
	case ShapeFlash:
		if x >= 1.0/3 && x < 2.0/3 {
			return p.High
		}
		return p.Low
	default:
		return p.Low
	}
}

// Schedule precomputes every op's send offset for the phase by
// integrating the rate curve: after an op at offset t, the next comes
// 1/RateAt(t) later. Scheduling ahead of time is what makes the
// harness open-loop — the plan never flexes to match the server. The
// offsets increase strictly: a gap that would not end inside the phase
// ends the schedule rather than overflowing a Duration.
func (p Phase) Schedule() []time.Duration {
	var out []time.Duration
	for t := time.Duration(0); t < p.Duration; {
		gap := float64(10 * time.Millisecond)
		if r := p.RateAt(t); r > 0 {
			out = append(out, t)
			gap = float64(time.Second) / r
		}
		if gap >= float64(p.Duration-t) {
			break
		}
		t += max(time.Duration(gap), 1) // a rate a rounding error above MaxRate
	}
	return out
}

// MaxRate is the highest rate a phase may ask for: one op per
// nanosecond, the resolution of a schedule.
const MaxRate = 1e9

// ParsePhases parses a load plan spec: comma-separated phases of the
// form name:duration@rate, where rate is
//
//	500        constant 500 ops/s
//	100..2000  linear ramp 100→2000
//	200~800    diurnal sinusoid between 200 and 800
//	100!2000   flash crowd: 100 baseline, 2000 during the middle third
//
// e.g. "steady:30s@400,ramp:60s@100..2000,crowd:30s@200!1500".
func ParsePhases(spec string) ([]Phase, error) {
	var phases []Phase
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, rest, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("load: phase %q: want name:duration@rate", part)
		}
		durStr, rateStr, ok := strings.Cut(rest, "@")
		if !ok {
			return nil, fmt.Errorf("load: phase %q: missing @rate", part)
		}
		dur, err := time.ParseDuration(durStr)
		if err != nil || dur <= 0 {
			return nil, fmt.Errorf("load: phase %q: bad duration %q", part, durStr)
		}
		p := Phase{Name: name, Duration: dur}
		switch {
		case strings.Contains(rateStr, ".."):
			p.Shape = ShapeRamp
			p.Low, p.High, err = parseRatePair(rateStr, "..")
		case strings.Contains(rateStr, "~"):
			p.Shape = ShapeDiurnal
			p.Low, p.High, err = parseRatePair(rateStr, "~")
		case strings.Contains(rateStr, "!"):
			p.Shape = ShapeFlash
			p.Low, p.High, err = parseRatePair(rateStr, "!")
		default:
			p.Shape = ShapeConstant
			p.Low, err = strconv.ParseFloat(rateStr, 64)
		}
		if err != nil {
			return nil, fmt.Errorf("load: phase %q: bad rate %q: %v", part, rateStr, err)
		}
		if !(p.Low >= 0 && p.Low <= MaxRate && p.High >= 0 && p.High <= MaxRate) {
			return nil, fmt.Errorf("load: phase %q: rate outside [0, %g] ops/s", part, MaxRate)
		}
		phases = append(phases, p)
	}
	if len(phases) == 0 {
		return nil, fmt.Errorf("load: empty phase spec %q", spec)
	}
	return phases, nil
}

func parseRatePair(s, sep string) (lo, hi float64, err error) {
	a, b, _ := strings.Cut(s, sep)
	if lo, err = strconv.ParseFloat(a, 64); err != nil {
		return 0, 0, err
	}
	hi, err = strconv.ParseFloat(b, 64)
	return lo, hi, err
}
