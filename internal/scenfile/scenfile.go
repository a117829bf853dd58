// Package scenfile makes scenarios data instead of code: a JSON
// scenario file declares a workload — links, routers, policer/marker
// contracts, source populations (including batched mixtures), sweep
// axes, truncation, and capability flags — and the package compiles it
// into a registered experiment.Scenario, either by targeting one of
// the existing preset spec types (shapes "multiflow", "fleet",
// "tandem") or by compiling an arbitrary element graph onto a
// topology.Builder program (shape "graph").
//
// The compiler is held to the same determinism contract as the Go
// presets: the checked-in nflow and tandem scenario files in testdata/
// compile to byte-identical figures, per-flow stats, and canonicalized
// traces (the parity tests pin this), so a scenario file is a faithful
// spelling of a preset, not an approximation of one.
//
// All validation happens at parse time and every error names the
// offending field ("graph.elements[3].to: ..."), so `dsbench
// -scenario-file` can reject a broken file up front — before any
// simulation runs — matching the CLI's reject-up-front convention.
package scenfile

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/experiment"
	"repro/internal/packet"
	"repro/internal/topology"
	"repro/internal/video"
)

// version is the scenario file format version this build parses.
const version = 1

// File is the root of a scenario file. Exactly one shape section —
// matching the Shape selector — must be present.
type File struct {
	Version int    `json:"version"`
	Name    string `json:"name"`  // registry key (experiment.Register)
	ID      string `json:"id"`    // figure ID, e.g. "Scaling A"
	Title   string `json:"title"` // figure title / Describe() text

	// Shape selects the compilation target: "multiflow", "fleet", and
	// "tandem" compile to the corresponding preset spec types; "graph"
	// compiles an explicit element graph onto a topology.Builder.
	Shape string `json:"shape"`

	// Capabilities declares which runner knobs the compiled scenario
	// honors. The declaration must match what the shape actually
	// supports — the validator rejects a file that over- or
	// under-claims — so a reader can trust the file without knowing
	// the compiler's internals.
	Capabilities Capabilities `json:"capabilities"`

	Multiflow *MultiflowShape `json:"multiflow,omitempty"`
	Fleet     *FleetShape     `json:"fleet,omitempty"`
	Tandem    *TandemShape    `json:"tandem,omitempty"`
	Graph     *GraphShape     `json:"graph,omitempty"`
}

// Capabilities mirrors the runner's capability probe: Shards ↔
// experiment.SupportsSharding (dsbench -shards). The bucket_width key is
// accepted for version-1 compatibility — existing files carry it — and
// not read: the calendar queue sizes itself.
type Capabilities struct {
	Shards      bool `json:"shards"`
	BucketWidth bool `json:"bucket_width"`
}

// Contract is a token-bucket traffic contract (policer or shaper).
type Contract struct {
	RateBps    float64 `json:"rate_bps"`
	DepthBytes int64   `json:"depth_bytes"`
}

// MultiflowShape compiles to experiment.MultiFlowSpec: N policed
// video flows through one shared bottleneck, sweeping N.
type MultiflowShape struct {
	Clip              string    `json:"clip"` // "lost" or "dark"
	EncRateBps        float64   `json:"enc_rate_bps"`
	Flows             []int     `json:"flows"` // flow counts to sweep
	Policer           *Contract `json:"policer"`
	BottleneckRateBps float64   `json:"bottleneck_rate_bps"`
	Sched             string    `json:"sched"` // "priority", "drr", "wfq"
	BELoad            float64   `json:"be_load"`
	Seed              uint64    `json:"seed"`
	Batch             bool      `json:"batch,omitempty"`
	StaggerUS         int64     `json:"stagger_us,omitempty"`
}

// MixtureClass is one equivalence class of a fleet mixture. Source
// must be empty or "cbr": mixture classes share one cached CBR
// schedule per class, which only deterministic sources support.
type MixtureClass struct {
	Name       string  `json:"name"`
	Source     string  `json:"source,omitempty"` // "" or "cbr"
	Clip       string  `json:"clip"`
	EncRateBps float64 `json:"enc_rate_bps"`
	Share      float64 `json:"share"`
	TokenRate  float64 `json:"token_rate_bps"`
}

// FleetShape compiles to experiment.FleetSpec: class-batched mixtures
// swept across total flow count, with truncation and start windows.
type FleetShape struct {
	Flows             []int          `json:"flows"` // total virtual flows per point
	Classes           []MixtureClass `json:"classes"`
	DepthBytes        int64          `json:"depth_bytes"`
	BottleneckRateBps float64        `json:"bottleneck_rate_bps"`
	Sched             string         `json:"sched"`
	BELoad            float64        `json:"be_load"`
	Seed              uint64         `json:"seed"`
	TruncateUS        int64          `json:"truncate_us,omitempty"`
	StartWindowUS     int64          `json:"start_window_us,omitempty"`
}

// Sweep is a kbps token-rate axis (from/to inclusive).
type Sweep struct {
	FromKbps int `json:"from_kbps"`
	ToKbps   int `json:"to_kbps"`
	StepKbps int `json:"step_kbps"`
}

// TandemShape compiles to experiment.TandemSpec: the two-border
// burst-accumulation sweep.
type TandemShape struct {
	Clip       string  `json:"clip"`
	EncRateBps float64 `json:"enc_rate_bps"`
	TokenSweep *Sweep  `json:"token_sweep"`
	DepthBytes int64   `json:"depth_bytes"`
	Seed       uint64  `json:"seed"`
	Runs       int     `json:"runs,omitempty"`
}

// Parse decodes and validates a scenario file. Unknown fields are
// rejected (a typoed knob must not be silently ignored), and every
// validation error names the offending field.
func Parse(data []byte) (*File, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var f File
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("scenfile: %w", err)
	}
	// A second document after the first is a malformed file, not data.
	if dec.More() {
		return nil, fmt.Errorf("scenfile: trailing data after the scenario object")
	}
	if err := f.validate(); err != nil {
		return nil, err
	}
	return &f, nil
}

// Marshal re-emits a file in canonical form: parsing Marshal's output
// yields a File equal to the input (the fuzz harness pins this).
func (f *File) Marshal() ([]byte, error) {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// errf builds the uniform "scenfile: <field>: <problem>" error.
func errf(field, format string, args ...any) error {
	return fmt.Errorf("scenfile: %s: %s", field, fmt.Sprintf(format, args...))
}

var clips = map[string]func() *video.Clip{
	"lost": video.Lost,
	"dark": video.Dark,
}

var scheds = map[string]topology.BottleneckSched{
	"priority": topology.PriorityBottleneck,
	"drr":      topology.DRRBottleneck,
	"wfq":      topology.WFQBottleneck,
}

var dscps = map[string]packet.DSCP{
	"ef":   packet.EF,
	"af11": packet.AF11,
	"af12": packet.AF12,
	"af13": packet.AF13,
	"be":   packet.BestEffort,
}

func checkClip(field, name string) error {
	if _, ok := clips[name]; !ok {
		return errf(field, "unknown clip %q (have \"lost\", \"dark\")", name)
	}
	return nil
}

func checkSched(field, name string) error {
	if _, ok := scheds[name]; !ok {
		return errf(field, "unknown bottleneck scheduler %q (have \"priority\", \"drr\", \"wfq\")", name)
	}
	return nil
}

func checkRate(field string, bps float64) error {
	if !(bps > 0) || math.IsInf(bps, 0) {
		return errf(field, "rate must be a positive finite bit rate, got %v", bps)
	}
	return nil
}

// validate checks the whole file; Parse calls it, and compile refuses
// files that have not passed it.
func (f *File) validate() error {
	if f.Version != version {
		return errf("version", "unsupported scenario file version %d (this build reads %d)", f.Version, version)
	}
	if f.Name == "" {
		return errf("name", "required (the scenario registry key)")
	}
	if f.ID == "" {
		return errf("id", "required (the figure ID)")
	}
	if f.Title == "" {
		return errf("title", "required (the figure title)")
	}
	shapes := []struct {
		name    string
		present bool
	}{
		{"multiflow", f.Multiflow != nil},
		{"fleet", f.Fleet != nil},
		{"tandem", f.Tandem != nil},
		{"graph", f.Graph != nil},
	}
	ok := false
	for _, sh := range shapes {
		ok = ok || sh.name == f.Shape
	}
	if !ok {
		return errf("shape", "unknown shape %q (have \"multiflow\", \"fleet\", \"tandem\", \"graph\")", f.Shape)
	}
	for _, sh := range shapes {
		switch {
		case sh.name == f.Shape && !sh.present:
			return errf(sh.name, "shape is %q but the %q section is missing", f.Shape, sh.name)
		case sh.name != f.Shape && sh.present:
			return errf(sh.name, "section present but shape is %q", f.Shape)
		}
	}
	wantShards := f.Shape != "graph"
	if f.Capabilities.Shards != wantShards {
		if wantShards {
			return errf("capabilities.shards", "must be true: %q scenarios run on shard-capable presets", f.Shape)
		}
		return errf("capabilities.shards", "must be false: graph scenarios build one unpartitioned simulator per point")
	}
	switch f.Shape {
	case "multiflow":
		return f.Multiflow.validate()
	case "fleet":
		return f.Fleet.validate()
	case "tandem":
		return f.Tandem.validate()
	case "graph":
		return f.Graph.validate()
	}
	return nil
}

// validateFlowCounts bounds every flow count to [1, MaxInt32]: the
// batched source, the shard border and the class tables index flows as
// int32, and a fleet count's per-class split never exceeds the count.
func validateFlowCounts(field string, ns []int) error {
	if len(ns) == 0 {
		return errf(field, "at least one flow count is required")
	}
	for i, n := range ns {
		if n < 1 || n > math.MaxInt32 {
			return errf(fmt.Sprintf("%s[%d]", field, i), "flow count must be in [1, %d], got %d", math.MaxInt32, n)
		}
	}
	return nil
}

func (m *MultiflowShape) validate() error {
	if err := checkClip("multiflow.clip", m.Clip); err != nil {
		return err
	}
	if err := checkRate("multiflow.enc_rate_bps", m.EncRateBps); err != nil {
		return err
	}
	if err := validateFlowCounts("multiflow.flows", m.Flows); err != nil {
		return err
	}
	if m.Policer == nil {
		return errf("multiflow.policer", "required (the per-flow EF contract)")
	}
	if !(m.Policer.RateBps > 0) || math.IsInf(m.Policer.RateBps, 0) {
		return errf("multiflow.policer.rate_bps", "policer rate must be positive, got %v", m.Policer.RateBps)
	}
	if m.Policer.DepthBytes <= 0 {
		return errf("multiflow.policer.depth_bytes", "bucket depth must be positive, got %d", m.Policer.DepthBytes)
	}
	if err := checkRate("multiflow.bottleneck_rate_bps", m.BottleneckRateBps); err != nil {
		return err
	}
	if err := checkSched("multiflow.sched", m.Sched); err != nil {
		return err
	}
	if m.BELoad < 0 || m.BELoad >= 1 || math.IsNaN(m.BELoad) {
		return errf("multiflow.be_load", "best-effort load must be in [0, 1), got %v", m.BELoad)
	}
	if m.StaggerUS < 0 {
		return errf("multiflow.stagger_us", "stagger must be >= 0, got %d", m.StaggerUS)
	}
	return nil
}

func (fl *FleetShape) validate() error {
	if err := validateFlowCounts("fleet.flows", fl.Flows); err != nil {
		return err
	}
	if len(fl.Classes) == 0 {
		return errf("fleet.classes", "at least one mixture class is required")
	}
	names := map[string]bool{}
	share := 0.0
	for i, c := range fl.Classes {
		field := fmt.Sprintf("fleet.classes[%d]", i)
		if c.Name == "" {
			return errf(field+".name", "required")
		}
		if names[c.Name] {
			return errf(field+".name", "duplicate class name %q", c.Name)
		}
		names[c.Name] = true
		switch c.Source {
		case "", "cbr":
		case "poisson":
			return errf(field+".source",
				"poisson sources cannot be batched in a mixture class (class batching replays one cached CBR schedule per class; use \"cbr\")")
		default:
			return errf(field+".source", "unknown source model %q (mixture classes support \"cbr\")", c.Source)
		}
		if err := checkClip(field+".clip", c.Clip); err != nil {
			return err
		}
		if err := checkRate(field+".enc_rate_bps", c.EncRateBps); err != nil {
			return err
		}
		if !(c.Share > 0) || c.Share > 1 {
			return errf(field+".share", "share must be in (0, 1], got %v", c.Share)
		}
		if !(c.TokenRate > 0) || math.IsInf(c.TokenRate, 0) {
			return errf(field+".token_rate_bps", "policer rate must be positive, got %v", c.TokenRate)
		}
		share += c.Share
	}
	if math.Abs(share-1) > 1e-9 {
		return errf("fleet.classes", "class shares must sum to 1, got %v", share)
	}
	classes := make([]experiment.FleetClass, len(fl.Classes))
	for i, c := range fl.Classes {
		classes[i] = experiment.FleetClass{Name: c.Name, Share: c.Share}
	}
	for i, n := range fl.Flows {
		for ci, cn := range experiment.SplitFlows(n, classes) {
			if cn == 0 {
				return errf(fmt.Sprintf("fleet.flows[%d]", i),
					"splitting %d flows by share leaves class %q (share %v) with none; every class needs at least one flow", n, classes[ci].Name, classes[ci].Share)
			}
		}
	}
	if fl.DepthBytes <= 0 {
		return errf("fleet.depth_bytes", "bucket depth must be positive, got %d", fl.DepthBytes)
	}
	if err := checkRate("fleet.bottleneck_rate_bps", fl.BottleneckRateBps); err != nil {
		return err
	}
	if err := checkSched("fleet.sched", fl.Sched); err != nil {
		return err
	}
	if fl.BELoad < 0 || fl.BELoad >= 1 || math.IsNaN(fl.BELoad) {
		return errf("fleet.be_load", "best-effort load must be in [0, 1), got %v", fl.BELoad)
	}
	if fl.TruncateUS < 0 {
		return errf("fleet.truncate_us", "truncation must be >= 0 (0 streams the whole clip), got %d", fl.TruncateUS)
	}
	if fl.StartWindowUS < 0 {
		return errf("fleet.start_window_us", "start window must be >= 0, got %d", fl.StartWindowUS)
	}
	return nil
}

func (s *Sweep) validate(field string) error {
	if s.FromKbps <= 0 {
		return errf(field+".from_kbps", "sweep start must be positive, got %d", s.FromKbps)
	}
	if s.ToKbps < s.FromKbps {
		return errf(field+".to_kbps", "sweep end %d is below its start %d", s.ToKbps, s.FromKbps)
	}
	if s.StepKbps <= 0 {
		return errf(field+".step_kbps", "sweep step must be positive, got %d", s.StepKbps)
	}
	return nil
}

func (t *TandemShape) validate() error {
	if err := checkClip("tandem.clip", t.Clip); err != nil {
		return err
	}
	if err := checkRate("tandem.enc_rate_bps", t.EncRateBps); err != nil {
		return err
	}
	if t.TokenSweep == nil {
		return errf("tandem.token_sweep", "required (the border token-rate axis)")
	}
	if err := t.TokenSweep.validate("tandem.token_sweep"); err != nil {
		return err
	}
	if t.DepthBytes <= 0 {
		return errf("tandem.depth_bytes", "bucket depth must be positive, got %d", t.DepthBytes)
	}
	if t.Runs < 0 {
		return errf("tandem.runs", "seed-averaged runs must be >= 0 (0 means the preset default), got %d", t.Runs)
	}
	return nil
}

// compile turns a validated file into a runnable scenario. The preset
// shapes compile to the same spec types the Go presets construct, so
// equality of the spec values is equality of every output byte.
func (f *File) compile() (experiment.Scenario, error) {
	if err := f.validate(); err != nil {
		return nil, err
	}
	switch f.Shape {
	case "multiflow":
		return f.compileMultiflow(), nil
	case "fleet":
		return f.compileFleet(), nil
	case "tandem":
		return f.compileTandem(), nil
	default: // "graph"; validate admits nothing else
		return f.compileGraph(), nil
	}
}
