package scenfile

import (
	"fmt"
	"os"

	"repro/internal/experiment"
	"repro/internal/units"
	"repro/internal/video"
)

// This file holds the preset-shape compilers and the load/register
// entry points. The preset shapes do not re-implement anything: they
// populate the exact spec types the Go presets construct
// (experiment.MultiFlowSpec / FleetSpec / TandemSpec), so a scenario
// file that spells out a preset's parameters produces byte-identical
// figures, stats, and traces — the parity tests in this package run
// both and compare.

func (f *File) compileMultiflow() experiment.Scenario {
	m := f.Multiflow
	return experiment.MultiFlowSpec{
		Key: f.Name, ID: f.ID, Title: f.Title,
		Clip:           clips[m.Clip](),
		EncRate:        units.BitRate(m.EncRateBps),
		Ns:             append([]int(nil), m.Flows...),
		TokenRate:      units.BitRate(m.Policer.RateBps),
		Depth:          units.ByteSize(m.Policer.DepthBytes),
		BottleneckRate: units.BitRate(m.BottleneckRateBps),
		Sched:          scheds[m.Sched],
		BELoad:         m.BELoad,
		Seed:           m.Seed,
		Batch:          m.Batch,
		Stagger:        units.Time(m.StaggerUS) * units.Microsecond,
	}
}

func (f *File) compileFleet() experiment.Scenario {
	fl := f.Fleet
	spec := experiment.FleetSpec{
		Key: f.Name, ID: f.ID, Title: f.Title,
		Ns:             append([]int(nil), fl.Flows...),
		Depth:          units.ByteSize(fl.DepthBytes),
		BottleneckRate: units.BitRate(fl.BottleneckRateBps),
		Sched:          scheds[fl.Sched],
		BELoad:         fl.BELoad,
		Seed:           fl.Seed,
		Truncate:       units.Time(fl.TruncateUS) * units.Microsecond,
		StartWindow:    units.Time(fl.StartWindowUS) * units.Microsecond,
	}
	for _, c := range fl.Classes {
		spec.Classes = append(spec.Classes, experiment.FleetClass{
			Name:      c.Name,
			Clip:      clips[c.Clip](),
			EncRate:   units.BitRate(c.EncRateBps),
			Share:     c.Share,
			TokenRate: units.BitRate(c.TokenRate),
		})
	}
	return spec
}

func (f *File) compileTandem() experiment.Scenario {
	t := f.Tandem
	return experiment.TandemSpec{
		Key: f.Name, ID: f.ID, Title: f.Title,
		Clip:    clips[t.Clip](),
		EncRate: units.BitRate(t.EncRateBps),
		Tokens:  experiment.TokenSweep(t.TokenSweep.FromKbps, t.TokenSweep.ToKbps, t.TokenSweep.StepKbps),
		Depth:   units.ByteSize(t.DepthBytes),
		Seed:    t.Seed,
		Runs:    t.Runs,
	}
}

// encodingFor resolves a clip name + rate to the shared encoding
// cache, so file-compiled and preset jobs hit the same cache entries.
func encodingFor(clip string, rateBps float64) *video.Encoding {
	return video.CachedCBR(clips[clip](), units.BitRate(rateBps))
}

// Load reads and parses a scenario file from disk.
func Load(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// LoadScenario loads and compiles a scenario file without
// registering it.
func LoadScenario(path string) (experiment.Scenario, error) {
	f, err := Load(path)
	if err != nil {
		return nil, err
	}
	s, err := f.Compile()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// LoadAndRegister loads, compiles, and registers a scenario file so
// the usual registry-driven machinery (dsbench -scenario/-run/-list,
// the shard capability probe) sees it like any preset. A name
// collision with an already registered scenario is an error, not a
// panic: the file's "name" field is user input.
func LoadAndRegister(path string) (experiment.Scenario, error) {
	s, err := LoadScenario(path)
	if err != nil {
		return nil, err
	}
	if experiment.Lookup(s.Name()) != nil {
		return nil, fmt.Errorf("%s: scenario name %q is already registered; rename the file's \"name\" field", path, s.Name())
	}
	experiment.Register(s)
	return s, nil
}
