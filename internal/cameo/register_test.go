package cameo

import (
	"errors"
	"reflect"
	"testing"

	"cameo/internal/dram"
	"cameo/internal/memorg"
)

// registryEnv is the Env package system hands CAMEO's descriptor for a
// 1 MB stacked / 3 MB off-chip machine.
func registryEnv() memorg.Env {
	return memorg.Env{
		Kind:           memorg.KindCAMEO,
		Cores:          2,
		StackedBytes:   1 << 20,
		OffChipBytes:   3 << 20,
		StackedDivisor: 4,
		NewStacked:     func() (dram.Device, error) { return dram.New(dram.StackedConfig(1 << 20)) },
		NewOffChip:     func(capacity uint64) (dram.Device, error) { return dram.New(dram.OffChipConfig(capacity)) },
	}
}

func TestVisibleGroupsPageAligned(t *testing.T) {
	for _, stacked := range []uint64{1 << 20, 3 << 20, 5<<20 + 4096} {
		e := memorg.Env{StackedBytes: stacked}
		g := visibleGroups(e)
		if g%64 != 0 {
			t.Errorf("%d bytes: %d groups not a page multiple", stacked, g)
		}
		if max := VisibleStackedLines(stacked / dram.LineBytes); g > max || max-g >= 64 {
			t.Errorf("%d bytes: %d groups, want the largest page multiple <= %d", stacked, g, max)
		}
	}
}

func TestRegistryGeometryAndBuild(t *testing.T) {
	d, ok := memorg.ByKind(memorg.KindCAMEO)
	if !ok || d.Name != "cameo" {
		t.Fatalf("CAMEO descriptor missing: %+v, %v", d, ok)
	}
	e := registryEnv()
	visible, stacked := d.Geometry(e)
	if stacked != visibleGroups(e) || visible != stacked*4 {
		t.Fatalf("Geometry = %d/%d, want %d groups x 4", visible, stacked, visibleGroups(e))
	}
	e.VisibleLines, e.StackedLines = visible, stacked
	org, err := d.Build(e)
	if err != nil {
		t.Fatal(err)
	}
	s, ok := org.(*System)
	if !ok {
		t.Fatalf("Build returned %T, want *System", org)
	}
	if s.VisibleLines() != visible || s.LLT().Groups() != stacked || s.LLT().Segments() != 4 {
		t.Fatalf("built system: visible %d, LLT %dx%d", s.VisibleLines(), s.LLT().Groups(), s.LLT().Segments())
	}

	// A failing device factory surfaces as a Build error, never a panic.
	boom := errors.New("boom")
	for _, broken := range []func(*memorg.Env){
		func(e *memorg.Env) { e.NewOffChip = func(uint64) (dram.Device, error) { return nil, boom } },
		func(e *memorg.Env) { e.NewStacked = func() (dram.Device, error) { return nil, boom } },
	} {
		be := e
		broken(&be)
		if _, err := d.Build(be); !errors.Is(err, boom) {
			t.Errorf("Build with a failing device = %v, want %v", err, boom)
		}
	}
}

func TestModuleStatsAndReset(t *testing.T) {
	s := testSystem(CoLocatedLLT, LLP)
	for line := uint64(0); line < 4*s.cfg.Groups; line += 997 {
		s.Access(0, req(0, line, 0x40))
	}
	if s.StackedStats().Reads == 0 || s.OffChipStats().Reads == 0 || s.Stats().Swaps == 0 {
		t.Fatalf("no traffic recorded: stacked %+v off %+v stats %+v", s.StackedStats(), s.OffChipStats(), s.Stats())
	}
	before := append([]uint8(nil), s.LLT().bytes...)
	s.ResetStats()
	if s.StackedStats() != (dram.Stats{}) || s.OffChipStats() != (dram.Stats{}) || s.Stats() != (Stats{}) {
		t.Fatalf("ResetStats left counters: stacked %+v off %+v stats %+v", s.StackedStats(), s.OffChipStats(), s.Stats())
	}
	if !reflect.DeepEqual(before, s.LLT().bytes) {
		t.Fatal("ResetStats disturbed the LLT; it must stay warm")
	}
}

// TestStatsAddSumsEveryField fills every counter (nested ones included)
// with distinct values, so a field added to Stats but not to Add fails.
func TestStatsAddSumsEveryField(t *testing.T) {
	var a, b Stats
	n := uint64(1)
	var fill func(x, y reflect.Value)
	fill = func(x, y reflect.Value) {
		for i := 0; i < x.NumField(); i++ {
			if x.Field(i).Kind() == reflect.Struct {
				fill(x.Field(i), y.Field(i))
				continue
			}
			x.Field(i).SetUint(n)
			y.Field(i).SetUint(100 * n)
			n++
		}
	}
	fill(reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem())
	sum := a
	sum.Add(b)
	var check func(path string, s, x, y reflect.Value)
	check = func(path string, s, x, y reflect.Value) {
		for i := 0; i < s.NumField(); i++ {
			name := path + s.Type().Field(i).Name
			if s.Field(i).Kind() == reflect.Struct {
				check(name+".", s.Field(i), x.Field(i), y.Field(i))
				continue
			}
			if got, want := s.Field(i).Uint(), x.Field(i).Uint()+y.Field(i).Uint(); got != want {
				t.Errorf("%s = %d after Add, want %d", name, got, want)
			}
		}
	}
	check("", reflect.ValueOf(sum), reflect.ValueOf(a), reflect.ValueOf(b))
}
