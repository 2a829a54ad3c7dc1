// Package scenario provides the named simulation presets shared by the
// command-line tools (cmd/jabasim, cmd/jabasweep) and JSON round-tripping
// of sim.Config, so complete scenario descriptions can be saved, edited
// and loaded back.
//
// All presets derive from one table (the presets map), which Names,
// Describe and Lookup read, so the three can never drift apart; every
// preset is a mutation of sim.DefaultConfig, and decoding a JSON file
// starts from the same defaults so unspecified fields keep their baseline
// values. Every decoded or looked-up configuration is validated before it
// is returned.
package scenario

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"jabasd/internal/core"
	"jabasd/internal/fault"
	"jabasd/internal/sim"
)

// Preset names accepted by Lookup.
const (
	PresetBaseline   = "baseline"
	PresetLight      = "light-load"
	PresetHeavy      = "heavy-load"
	PresetReverse    = "reverse"
	PresetPedestrian = "pedestrian"
	PresetVehicular  = "vehicular"
	PresetThroughput = "j1-max-tput"
	PresetSmoke      = "smoke"
	PresetMetro      = "metro"
	PresetMetroChaos = "metro-outage"
	PresetCity       = "city"
	PresetCityDense  = "city-dense"
)

// preset couples a one-line description with the mutation it applies to the
// default configuration.
type preset struct {
	desc  string
	apply func(*sim.Config)
}

// presets is the single source of truth behind Names, Describe and Lookup,
// so the three can never drift apart.
var presets = map[string]preset{
	PresetBaseline: {"19 wrap-around cells, 10 data users/cell, forward link",
		func(*sim.Config) {}},
	PresetLight: {"4 data users per cell",
		func(c *sim.Config) { c.DataUsersPerCell = 4 }},
	PresetHeavy: {"20 data users per cell",
		func(c *sim.Config) { c.DataUsersPerCell = 20 }},
	PresetReverse: {"reverse-link bursts",
		func(c *sim.Config) { c.Direction = sim.Reverse }},
	PresetPedestrian: {"~3 km/h users, low Doppler",
		func(c *sim.Config) {
			c.MinSpeed, c.MaxSpeed = 0.5, 1.5
			c.DopplerHz = 6
		}},
	PresetVehicular: {"50-100 km/h users, high Doppler",
		func(c *sim.Config) {
			c.MinSpeed, c.MaxSpeed = 14, 28
			c.DopplerHz = 180
		}},
	PresetThroughput: {"pure throughput objective J1",
		func(c *sim.Config) { c.Objective = core.Objective{Kind: core.ObjectiveThroughput} }},
	PresetMetro: {"37 wrap-around cells, 30 data users/cell, snapshot-parallel frames",
		applyMetro},
	PresetMetroChaos: {"metro with a mid-run centre-cell outage and a flash-crowd load surge",
		func(c *sim.Config) {
			// The chaos demo behind experiments E13/E14 and the CI chaos
			// job: the metro deployment loses its centre cell for the
			// middle fifth of the run while a flash crowd quarters the
			// mean reading time, then both recover. Everything else —
			// and therefore the no-fault frames — matches the metro
			// preset exactly.
			applyMetro(c)
			c.Faults = &fault.Schedule{
				Cells: []fault.CellEvent{
					{Cell: 0, StartSec: 0.4 * c.SimTime, EndSec: 0.6 * c.SimTime},
				},
				Load: []fault.LoadEvent{
					{AtSec: 0.35 * c.SimTime, ReadingTimeSec: c.Data.MeanReadingTimeSec / 4},
					{AtSec: 0.7 * c.SimTime, ReadingTimeSec: c.Data.MeanReadingTimeSec},
				},
			}
		}},
	PresetCity: {"1027 wrap-around cells, 100 data users/cell, tiled snapshot frames",
		func(c *sim.Config) { applyCity(c, 100, 20) }},
	PresetCityDense: {"1027 wrap-around cells, 250 data users/cell, tiled snapshot frames",
		func(c *sim.Config) { applyCity(c, 250, 40) }},
	PresetSmoke: {"tiny fast scenario for CI / demos",
		func(c *sim.Config) {
			c.Rings = 1
			c.SimTime = 10
			c.WarmupTime = 2
			c.DataUsersPerCell = 4
			c.VoiceUsersPerCell = 4
			c.Data.MeanReadingTimeSec = 4
		}},
}

// applyMetro mutates the default configuration into a metropolitan
// deployment: 3 hexagonal rings (37 cells) at urban density. Only tractable
// with the snapshot frame mode, where the 37 per-cell ILP solves of every
// frame fan out over the worker pool instead of running back to back.
func applyMetro(c *sim.Config) {
	c.Rings = 3
	c.CellRadius = 600
	c.DataUsersPerCell = 30
	c.VoiceUsersPerCell = 12
	c.FrameMode = sim.FrameSnapshot
}

// applyCity mutates the default configuration into the city-scale family:
// an 18-ring wrap-around grid (1027 cells) of 500 m microcells with the
// city-scale machinery switched on — windowed per-user physics (a 24-cell
// measurement window via the spatial bucket index, so channel state is
// O(users x window) instead of O(users x cells)) and the snapshot frame
// mode with its solve phase dispatched in 8 chunks of the active cells
// (Tiles; a chunk owns no state and results are byte-identical for any
// tile count, so -tiles only changes wall-clock). SimTime is short because
// a single city frame covers >100k data users; sweeps scale it as needed.
func applyCity(c *sim.Config, dataPerCell, voicePerCell int) {
	c.Rings = 18
	c.CellRadius = 500
	c.DataUsersPerCell = dataPerCell
	c.VoiceUsersPerCell = voicePerCell
	c.FrameMode = sim.FrameSnapshot
	c.Tiles = 8
	c.PilotCells = 24
	c.SimTime = 20
	c.WarmupTime = 0.5
}

// Names returns the available preset names in sorted order.
func Names() []string {
	out := make([]string, 0, len(presets))
	for name := range presets {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Describe returns the one-line description of a preset, or "" if the name
// is unknown.
func Describe(name string) string {
	if name == "" {
		name = PresetBaseline
	}
	return presets[name].desc
}

// Lookup returns the configuration for a named preset ("" = baseline).
func Lookup(name string) (sim.Config, error) {
	if name == "" {
		name = PresetBaseline
	}
	p, ok := presets[name]
	if !ok {
		return sim.Config{}, fmt.Errorf("scenario: unknown preset %q (available: %v)", name, Names())
	}
	cfg := sim.DefaultConfig()
	p.apply(&cfg)
	return cfg, nil
}

// Save writes a configuration as indented JSON to path.
func Save(path string, cfg sim.Config) error {
	data, err := json.MarshalIndent(cfg, "", "  ")
	if err != nil {
		return fmt.Errorf("scenario: encode: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("scenario: write %s: %w", path, err)
	}
	return nil
}

// Load reads a configuration from a JSON file and validates it.
func Load(path string) (sim.Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return sim.Config{}, fmt.Errorf("scenario: read %s: %w", path, err)
	}
	return Decode(data)
}

// Decode parses a configuration from JSON bytes and validates it.
func Decode(data []byte) (sim.Config, error) {
	cfg := sim.DefaultConfig() // unspecified fields keep their defaults
	if err := json.Unmarshal(data, &cfg); err != nil {
		return sim.Config{}, fmt.Errorf("scenario: decode: %w", err)
	}
	if err := cfg.Validate(); err != nil {
		return sim.Config{}, fmt.Errorf("scenario: invalid config: %w", err)
	}
	return cfg, nil
}

// Encode renders a configuration as indented JSON.
func Encode(cfg sim.Config) ([]byte, error) {
	return json.MarshalIndent(cfg, "", "  ")
}
