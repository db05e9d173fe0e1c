package cliflags

import (
	"bytes"
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"

	"wgtt/internal/metrics"
	"wgtt/internal/urban"
)

// freshCommandLine makes the default flag set a new, quiet one that returns
// its parse errors, for the length of the test.
func freshCommandLine(t *testing.T) *flag.FlagSet {
	saved := flag.CommandLine
	t.Cleanup(func() { flag.CommandLine = saved })
	flag.CommandLine = flag.NewFlagSet("test", flag.ContinueOnError)
	flag.CommandLine.SetOutput(io.Discard)
	return flag.CommandLine
}

// parse registers flags with register on a fresh default flag set, as a CLI
// does before flag.Parse, and parses args into it.
func parse[T any](t *testing.T, register func() T, args ...string) T {
	t.Helper()
	fs := freshCommandLine(t)
	got := register()
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestCityFlagsOverrideOnlyWhatWasSet: an unset flag leaves the city
// default, and 0 means "default" for a dimension but "none" for a
// population.
func TestCityFlagsOverrideOnlyWhatWasSet(t *testing.T) {
	def := urban.DefaultConfig()

	c := def
	parse(t, City)(&c)
	if !reflect.DeepEqual(c, def) {
		t.Errorf("no flags set: city %+v, want the default %+v", c, def)
	}

	c = def
	parse(t, City, "-urban-buses", "0", "-urban-rows", "0", "-urban-cols", "7")(&c)
	want := def
	want.Buses, want.Cols = 0, 7
	if def.Buses == 0 || !reflect.DeepEqual(c, want) {
		t.Errorf("-urban-buses 0 -urban-rows 0 -urban-cols 7: city %+v, want %+v", c, want)
	}
}

func TestChaosIsNilUnlessAsked(t *testing.T) {
	if c := parse(t, Chaos, "-chaos-ap-mtbf", "5")(); c != nil {
		t.Errorf("without -chaos: config %+v, want nil", c)
	}
	c := parse(t, Chaos, "-chaos", "-chaos-ap-mtbf", "5")()
	if c == nil || c.APCrashMTBF.Seconds() != 5 {
		t.Errorf("-chaos -chaos-ap-mtbf 5: config %+v, want a 5 s MTBF", c)
	}
}

// TestOutOfRangeNumbersFailTheParse: a number a flag cannot mean is a parse
// error, not a silent fall-back to the default — while each flag's own
// "default" value still parses.
func TestOutOfRangeNumbersFailTheParse(t *testing.T) {
	register := func() any { return []any{City(), Domains(), Chaos()} }
	for _, args := range [][]string{
		{"-chaos", "-chaos-ap-mtbf", "-5"},
		{"-chaos", "-chaos-ap-mtbf", "NaN"},
		{"-chaos", "-chaos-ap-mtbf", "+Inf"},
		{"-chaos", "-chaos-downtime", "0"},
		{"-urban-rows", "-3"},
		{"-urban-cols", "2.5"},
		{"-urban-riders", "-7"},
		{"-urban-spacing", "-1"},
		{"-urban-duration", "-1"},
		{"-domains", "-2"},
	} {
		fs := freshCommandLine(t)
		register()
		if err := fs.Parse(args); err == nil || !strings.Contains(err.Error(), "want ") {
			t.Errorf("%q: parse error %v, want an out-of-range error", args, err)
		}
	}
	parse(t, register, "-chaos-ap-mtbf", "0.5", "-urban-rows", "0", "-urban-riders", "-1", "-urban-duration", "0", "-domains", "0")
}

// TestMetricsWriteNeedsFlagAndSnapshot: Write touches nothing when -metrics
// is unset or the run produced no snapshot.
func TestMetricsWriteNeedsFlagAndSnapshot(t *testing.T) {
	var out bytes.Buffer
	snap := metrics.NewRegistry().Snapshot()

	unset := parse(t, Metrics)
	if err := unset.Write(&out, &snap, "snapshot"); err != nil || unset.On() || out.Len() != 0 {
		t.Errorf("unset -metrics: On %v, wrote %q, err %v", unset.On(), out.String(), err)
	}
	// A path that cannot be created proves the file is never opened.
	set := parse(t, Metrics, "-metrics", t.TempDir()+"/missing/m.json")
	if err := set.Write(&out, nil, "snapshot"); err != nil || !set.On() || out.Len() != 0 {
		t.Errorf("nil snapshot: On %v, wrote %q, err %v", set.On(), out.String(), err)
	}
	if err := set.Write(&out, &snap, "snapshot"); err == nil {
		t.Error("a snapshot for an uncreatable path reported no error")
	}
}

// FuzzCLIFlags parses an arbitrary argument list (NUL-separated) against
// every shared flag, registered as a CLI registers them: nothing panics, an
// accepted -selector resolves to a policy or to an error but never both, the
// chaos config exists exactly when -chaos is on, a snapshot is asked for
// exactly when -metrics names a destination, and no accepted number leaves
// the city or the domain count out of range.
func FuzzCLIFlags(f *testing.F) {
	for _, args := range [][]string{
		{},
		{"-selector", "predictive"},
		{"-selector=bogus", "-metrics", "-"},
		{"-selector", ""},
		{"-chaos", "-chaos-ap-mtbf", "5"},
		{"-chaos=false", "-chaos-downtime", "NaN"},
		{"-urban-rows", "-3", "-urban-spacing", "1e308", "-urban-buses", "0"},
		{"-urban-cols=x"},
		{"-metrics"},
		{"-h"},
		{"--", "-chaos"},
		{"-chaos", "-chaos-ap-mtbf", "-5"},
		{"-chaos", "-chaos-downtime", "0"},
		{"-chaos", "-chaos-ap-mtbf", "NaN"},
		{"-urban-rows", "-3", "-urban-riders", "-7", "-urban-duration", "-1"},
		{"-domains", "-2"},
	} {
		f.Add(strings.Join(args, "\x00"))
	}
	f.Fuzz(func(t *testing.T, joined string) {
		fs := freshCommandLine(t)
		city, dom, sel, chaosCfg, met := City(), Domains(), Selector(), Chaos(), Metrics()
		var args []string
		if joined != "" {
			args = strings.Split(joined, "\x00")
		}
		if fs.Parse(args) != nil {
			return
		}
		c := urban.DefaultConfig()
		city(&c)
		if c.Rows < 1 || c.Cols < 1 || !(c.BlockM > 0 && c.APSpacingM > 0 && c.MaxDurationS > 0) ||
			c.Buses < 0 || c.RidersPerBus < 0 || c.Cars < 0 || c.Pedestrians < 0 || *dom < 0 {
			t.Fatalf("accepted flags gave city %+v, -domains %d", c, *dom)
		}
		if pol, err := sel.Policy(); (pol == "") == (err == nil) {
			t.Fatalf("-selector %q: policy %q and error %v", *sel.name, pol, err)
		}
		on := fs.Lookup("chaos").Value.String() == "true"
		if cfg := chaosCfg(); (cfg != nil) != on {
			t.Fatalf("-chaos=%v: config %+v", on, cfg)
		}
		if met.On() != (*met.path != "") {
			t.Fatalf("-metrics %q: On %v", *met.path, met.On())
		}
	})
}
