package detect

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"strconv"
	"strings"

	"dassa/internal/arrayudf"
	"dassa/internal/dasf"
	"dassa/internal/dass"
)

// An analysis operation is defined once, here: core, serve, cluster and
// das_analyze look an Op up by name and drive its Params through this
// interface, with no code of their own per operation (DESIGN.md §8).

// Params is one operation's parameter block: a pointer to a struct whose JSON
// tags are its wire form (Decode reads it back) and whose `key` and `help`
// tags name the parameters Set can reach, embedded blocks included.
type Params interface {
	// Op names the registered operation the block belongs to.
	Op() string
	// Validate bounds the block against the nch × nt view it is to run on,
	// before anything is sized from it; a refusal wraps ErrBadParams.
	Validate(nch, nt int) error
	// Workload is the one value the engine runs; it also carries the channel
	// halo (Spec.GhostChannels) and the output extent (OutSamples).
	Workload(nt int) arrayudf.Workload
}

// Op is the definition of one analysis operation.
type Op struct {
	Name string
	// Default returns a fresh parameter block at the defaults for a recording
	// sampled at rate Hz over nt samples.
	Default func(rate float64, nt int) Params
	// Events, when set, is the event stage: the detected regions of the output
	// map at thresh background standard deviations. /detect serves exactly the
	// operations that have one.
	Events func(out *dasf.Array2D, thresh float64) []Region
	// Summary is what das_analyze prints for a run over nt samples at rate Hz.
	Summary func(p Params, out *dasf.Array2D, nt int, rate float64) string
}

// DefaultOp is the operation a request that names none runs; DefaultThreshold
// the event stage's cut, in background standard deviations, when none is given.
const (
	DefaultOp        = "localsimi"
	DefaultThreshold = 1.5
)

var ops = []Op{{
	Name: DefaultOp, Events: BandedEvents,
	Default: func(rate float64, _ int) Params { return DefaultLocalSimi(rate) },
	Summary: func(_ Params, sim *dasf.Array2D, nt int, rate float64) string {
		regions := BandedEvents(sim, DefaultThreshold)
		var b strings.Builder
		fmt.Fprintf(&b, "detected %d events:", len(regions))
		secPerIdx := float64(nt) / rate / float64(sim.Samples)
		for _, r := range regions {
			fmt.Fprintf(&b, "\n  t=[%.1fs,%.1fs) channels=[%d,%d) peak=%.3f",
				float64(r.TLo)*secPerIdx, float64(r.THi)*secPerIdx, r.ChLo, r.ChHi, r.Peak)
		}
		return b.String()
	},
}, {
	Name:    InterferometryParams{}.Op(),
	Default: func(rate float64, _ int) Params { return DefaultInterferometry(rate) },
	Summary: func(p Params, corr *dasf.Array2D, _ int, _ float64) string {
		return fmt.Sprintf("noise correlations: %d channels × %d lags against master channel %d",
			corr.Channels, corr.Samples, p.(*InterferometryParams).MasterChannel)
	},
}, {
	// Eight windows with 25% overlap on top of the default pipeline.
	Name: StackingParams{}.Op(),
	Default: func(rate float64, nt int) Params {
		win := max(nt/8, 64)
		return &StackingParams{InterferometryParams: *DefaultInterferometry(rate), WindowSamples: win, OverlapSamples: win / 4}
	},
	Summary: func(p Params, corr *dasf.Array2D, nt int, _ float64) string {
		return fmt.Sprintf("stacked noise correlations: %d channels × %d lags over %d windows",
			corr.Channels, corr.Samples, p.(*StackingParams).NumWindows(nt))
	},
}, {
	Name: STALTAParams{}.Op(), Events: BandedEvents,
	Default: func(rate float64, _ int) Params {
		return &STALTAParams{STASamples: max(int(rate/10), 2), LTASamples: max(int(rate), 8), Stride: 1}
	},
	Summary: func(_ Params, ratios *dasf.Array2D, _ int, _ float64) string {
		return fmt.Sprintf("STA/LTA map: %d channels × %d samples, max ratio %.2f",
			ratios.Channels, ratios.Samples, MaxRatio(ratios.Data))
	},
}}

// DefaultLocalSimi returns Algorithm 2's parameters as used throughout the
// paper's demonstrations, scaled to the sampling rate.
func DefaultLocalSimi(rate float64) *LocalSimiParams {
	return &LocalSimiParams{M: max(int(rate/4), 2), K: 1, L: 4, Stride: max(int(rate/5), 1)}
}

// DefaultInterferometry returns Algorithm 3's standard pipeline: lowpass at
// rate/8, decimate by 2, correlate against channel 0, keep ±128 lags.
func DefaultInterferometry(rate float64) *InterferometryParams {
	return &InterferometryParams{
		Rate: rate, FilterOrder: 3, CutoffHz: rate / 8,
		ResampleP: 1, ResampleQ: 2, MasterChannel: 0, MaxLag: 128,
	}
}

// BandedEvents is the event stage of both detectors: FindEventsBanded over
// bands an eighth of the array wide (at least four channels), so a localized
// event stands out inside its band.
func BandedEvents(out *dasf.Array2D, thresh float64) []Region {
	return FindEventsBanded(out, thresh, max(out.Channels/8, 4))
}

// Ops returns the registered operations in registration order.
func Ops() []Op { return ops }

// Lookup returns the operation registered under name.
func Lookup(name string) (Op, bool) {
	for _, o := range ops {
		if o.Name == name {
			return o, true
		}
	}
	return Op{}, false
}

// Register adds an operation. It is for package initialization: the table is
// read without a lock by everything that runs afterwards.
func Register(o Op) {
	if _, dup := Lookup(o.Name); dup || o.Default == nil || o.Summary == nil {
		panic(fmt.Sprintf("detect: Register(%q): incomplete, or already registered", o.Name))
	}
	ops = append(ops, o)
}

// Field is one settable parameter: its key — the das_analyze flag and the
// /detect query parameter are the same word — and a help line.
type Field struct {
	Key, Help string
	dst       any // *int or *float64
}

// Fields lists p's settable parameters in declaration order.
func Fields(p Params) []Field { return fieldsOf(reflect.ValueOf(p).Elem(), nil) }

func fieldsOf(v reflect.Value, out []Field) []Field {
	for i := 0; i < v.NumField(); i++ {
		sf := v.Type().Field(i)
		if key, ok := sf.Tag.Lookup("key"); ok {
			out = append(out, Field{key, sf.Tag.Get("help"), v.Field(i).Addr().Interface()})
		} else if sf.Anonymous {
			out = fieldsOf(v.Field(i), out)
		}
	}
	return out
}

// Set parses value into p's parameter key. A key the block does not declare
// and a value that does not parse are both ErrBadParams.
func Set(p Params, key, value string) error {
	for _, f := range Fields(p) {
		if f.Key != key {
			continue
		}
		var err error
		switch dst := f.dst.(type) {
		case *int:
			*dst, err = strconv.Atoi(value)
		case *float64:
			*dst, err = strconv.ParseFloat(value, 64)
		}
		if err != nil {
			return fmt.Errorf("%w: bad %s=%q", ErrBadParams, key, value)
		}
		return nil
	}
	return fmt.Errorf("%w: %s has no parameter %q", ErrBadParams, p.Op(), key)
}

// SetFailPolicy hands the run's fail policy to a block whose workload reads
// through the view itself — a rows operation's master channel, whose Prepare
// the engine calls with the view alone. Other blocks have nothing to be told.
func SetFailPolicy(p Params, policy dass.FailPolicy) {
	if r, ok := p.(interface{ SetFailPolicy(dass.FailPolicy) }); ok {
		r.SetFailPolicy(policy)
	}
}

// TimeReach reports how far along time a cell's value reads, for a block
// that declares it: the cell at t is a function of the samples
// [t−back, t+fwd] and of t modulo the stride alone, unless that span leaves
// the view, where the cell clamps at the edge. Score tiles rest on this
// contract (DESIGN.md §8); a block that does not declare a reach (ok=false)
// is never tiled.
func TimeReach(p Params) (back, fwd int, ok bool) {
	r, ok := p.(interface{ TimeReach() (back, fwd int) })
	if !ok {
		return 0, 0, false
	}
	back, fwd = r.TimeReach()
	return back, fwd, true
}

// Decode reads the parameter block of the operation registered under name as
// json.Marshal wrote it. Both come off the network: an unregistered name, an
// unknown field or anything after the object is refused; a field left out
// stays zero for Validate to refuse.
func Decode(name string, raw []byte) (Params, error) {
	o, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("%w: unknown op %q", ErrBadParams, name)
	}
	p := reflect.New(reflect.TypeOf(o.Default(0, 0)).Elem()).Interface().(Params)
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(p); err != nil {
		return nil, fmt.Errorf("%w: %s parameters: %w", ErrBadParams, name, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("%w: %s parameters: trailing bytes", ErrBadParams, name)
	}
	return p, nil
}
