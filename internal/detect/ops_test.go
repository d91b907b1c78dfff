package detect

import (
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"dassa/internal/dass"
)

// TestRegistryDefaults pins the one set of defaults every surface now shares —
// where das_analyze and dassd used to disagree, the daemon's value.
func TestRegistryDefaults(t *testing.T) {
	const rate, nt = 100, 4000
	want := map[string]Params{
		"localsimi":      &LocalSimiParams{M: 25, K: 1, L: 4, Stride: 20},
		"stalta":         &STALTAParams{STASamples: 10, LTASamples: 100, Stride: 1},
		"interferometry": &InterferometryParams{Rate: 100, FilterOrder: 3, CutoffHz: 12.5, ResampleP: 1, ResampleQ: 2, MaxLag: 128},
		"stacked": &StackingParams{
			InterferometryParams: InterferometryParams{Rate: 100, FilterOrder: 3, CutoffHz: 12.5, ResampleP: 1, ResampleQ: 2, MaxLag: 128},
			WindowSamples:        500, OverlapSamples: 125,
		},
	}
	if len(Ops()) < len(want) {
		t.Fatalf("%d ops registered, want at least %d", len(Ops()), len(want))
	}
	for name, p := range want {
		op, ok := Lookup(name)
		if !ok {
			t.Fatalf("%s is not registered", name)
		}
		if got := op.Default(rate, nt); !reflect.DeepEqual(got, p) {
			t.Errorf("%s defaults at %d Hz over %d samples: %+v, want %+v", name, rate, nt, got, p)
		}
		if (op.Events != nil) != (name == "localsimi" || name == "stalta") {
			t.Errorf("%s: event stage %v", name, op.Events != nil)
		}
	}
	if op, _ := Lookup(DefaultOp); op.Name != "localsimi" {
		t.Errorf("default op %q", op.Name)
	}
	// Tiny rates keep every default runnable.
	for _, op := range Ops() {
		if err := op.Default(1, 4000).Validate(8, 4000); err != nil {
			t.Errorf("%s at 1 Hz: %v", op.Name, err)
		}
	}
}

// TestRegistryParamsContract holds every registered op to what its consumers
// assume: defaults that name their op and fit a plain view, keys that are
// unique and each reach a field, a wire form Decode reads back exactly, and a
// summary line.
func TestRegistryParamsContract(t *testing.T) {
	const rate, nch, nt = 50, 12, 2000
	for _, op := range Ops() {
		p := op.Default(rate, nt)
		if p.Op() != op.Name {
			t.Errorf("%s: defaults belong to %q", op.Name, p.Op())
		}
		if err := p.Validate(nch, nt); err != nil {
			t.Errorf("%s defaults on %d×%d: %v", op.Name, nch, nt, err)
		}
		w := p.Workload(nt)
		if (w.UDFScratch == nil) == (w.UDFInto == nil) || w.OutSamples(nt) < 1 {
			t.Errorf("%s: workload is neither points nor rows, or has no extent", op.Name)
		}
		seen := map[string]bool{}
		for _, f := range Fields(p) {
			if seen[f.Key] || f.Help == "" {
				t.Errorf("%s: key %q repeated or undocumented", op.Name, f.Key)
			}
			seen[f.Key] = true
			before, _ := json.Marshal(p)
			if err := Set(p, f.Key, "7"); err != nil {
				t.Errorf("%s: Set(%s): %v", op.Name, f.Key, err)
			}
			after, _ := json.Marshal(p)
			if string(before) == string(after) {
				t.Errorf("%s: Set(%s, 7) changed nothing in %s", op.Name, f.Key, after)
			}
			for _, bad := range []string{"", "seven", "7 ", "7.5.1", "0x"} {
				if err := Set(p, f.Key, bad); !errors.Is(err, ErrBadParams) {
					t.Errorf("%s: Set(%s, %q): %v, want ErrBadParams", op.Name, f.Key, bad, err)
				}
			}
		}
		if len(seen) == 0 {
			t.Errorf("%s declares no settable parameter", op.Name)
		}
		if err := Set(p, "no-such-key", "1"); !errors.Is(err, ErrBadParams) {
			t.Errorf("%s: undeclared key: %v, want ErrBadParams", op.Name, err)
		}
		raw, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		back, err := Decode(op.Name, raw)
		if err != nil || !reflect.DeepEqual(back, p) {
			t.Errorf("%s: %s decoded as %+v (%v), want %+v", op.Name, raw, back, err, p)
		}
		for name, hostile := range map[string]string{
			"truncated":      string(raw[:len(raw)/2]),
			"unknown field":  strings.Replace(string(raw), "{", `{"zzz":1,`, 1),
			"trailing bytes": string(raw) + " {}",
			"not an object":  `[` + string(raw) + `]`,
			"wrong type":     strings.Replace(string(raw), ":", `:"x`, 1),
		} {
			if _, err := Decode(op.Name, []byte(hostile)); !errors.Is(err, ErrBadParams) {
				t.Errorf("%s: %s (%s): %v, want ErrBadParams", op.Name, name, hostile, err)
			}
		}
		if op.Summary == nil {
			t.Errorf("%s has no summary", op.Name)
		}
	}
	if _, err := Decode("never-registered", []byte(`{}`)); !errors.Is(err, ErrBadParams) {
		t.Errorf("unregistered op: %v, want ErrBadParams", err)
	}
}

func TestRegisterRefusesDuplicatesAndHalfOps(t *testing.T) {
	for _, o := range []Op{
		{Name: DefaultOp, Default: ops[0].Default, Summary: ops[0].Summary},
		{Name: "half", Summary: ops[0].Summary},
		{Name: "mute", Default: ops[0].Default},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Register(%q) accepted", o.Name)
				}
			}()
			Register(o)
		}()
	}
}

// TestSetFailPolicyReachesTheMasterRead: the run's policy lands on the blocks
// whose workload reads through the view itself — stacking inherits the
// setter — never crosses the wire, and is nothing to the point detectors.
func TestSetFailPolicyReachesTheMasterRead(t *testing.T) {
	for _, op := range Ops() {
		p := op.Default(50, 2000)
		before, _ := json.Marshal(p)
		SetFailPolicy(p, dass.FailDegrade)
		after, _ := json.Marshal(p)
		if string(before) != string(after) {
			t.Errorf("%s: the fail policy crossed into the wire form: %s", op.Name, after)
		}
		var got dass.FailPolicy
		switch p := p.(type) {
		case *InterferometryParams:
			got = p.failPolicy
		case *StackingParams:
			got = p.failPolicy
		default:
			if p.Workload(2000).Prepare != nil {
				t.Errorf("%s reads through the view but cannot be told the policy", op.Name)
			}
			continue
		}
		if got != dass.FailDegrade {
			t.Errorf("%s: policy %v after SetFailPolicy(degrade)", op.Name, got)
		}
	}
}
