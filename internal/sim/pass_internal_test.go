package sim

// Tests for the frame's physics pass (updateUsers): one pool dispatch that
// advances the voice users, the data users and the serving bursts'
// instantaneous throughput. They pin the burst ↔ user link the pass reads
// and the pass's invariance to the worker count and tiling.

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"jabasd/internal/trace"
)

// passConfig is a snapshot-mode scenario with voice users and enough data
// load that bursts are in flight past their set-up on most frames.
func passConfig() Config {
	cfg := quickConfig()
	cfg.SimTime = 4
	cfg.DataUsersPerCell = 8
	cfg.FrameMode = FrameSnapshot
	return cfg
}

// checkServing asserts that the users' serving links are exactly the
// in-flight bursts: every burst is its user's serving burst, and no user
// serves a burst outside e.bursts.
func checkServing(t *testing.T, e *Engine, where string) {
	t.Helper()
	inFlight := make(map[*burst]bool, len(e.bursts))
	for _, b := range e.bursts {
		if b.user.serving != b {
			t.Fatalf("%s: user %d's serving link does not point at its burst", where, b.user.id)
		}
		inFlight[b] = true
	}
	for _, u := range e.users {
		if u.serving != nil && !inFlight[u.serving] {
			t.Fatalf("%s: user %d serves a burst that is not in flight", where, u.id)
		}
	}
}

// TestServingLinksTrackBursts steps a parallel snapshot engine frame by
// frame, untiled and tiled, and checks the serving links after every frame,
// after a checkpoint resume and on every frame the resumed engine runs.
func TestServingLinksTrackBursts(t *testing.T) {
	for _, tiles := range []int{0, 3} {
		cfg := passConfig()
		cfg.FrameParallel = 2
		cfg.Tiles = tiles
		e, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		frames := int(cfg.SimTime/cfg.FrameLength + 0.5)
		half := frames / 2
		served := 0
		for f := 0; f < half; f++ {
			e.now = float64(f) * cfg.FrameLength
			e.step()
			checkServing(t, e, "straight run")
			served += len(e.bursts)
		}
		var blob bytes.Buffer
		if err := e.Checkpoint(&blob); err != nil {
			t.Fatal(err)
		}
		e.Close()
		if served == 0 {
			t.Fatalf("tiles=%d: no burst was ever in flight; scenario too light", tiles)
		}

		c, err := ReadCheckpoint(&blob)
		if err != nil {
			t.Fatal(err)
		}
		r, err := c.Resume(c.Config())
		if err != nil {
			t.Fatal(err)
		}
		if len(r.bursts) == 0 {
			t.Fatalf("tiles=%d: checkpoint holds no burst; resume is not exercised", tiles)
		}
		checkServing(t, r, "after resume")
		for f := r.frame; f < frames; f++ {
			r.now = float64(f) * cfg.FrameLength
			r.step()
			checkServing(t, r, "resumed run")
		}
		r.Close()
	}
}

// TestPhysicsPassIdenticalAcrossWorkersAndTiles is the determinism gate of
// the merged pass: metrics and trace bytes are identical for any frame
// worker count, tiled or not, on a scenario where voice users move and
// bursts deliver bits, so both halves of the pass do work.
func TestPhysicsPassIdenticalAcrossWorkersAndTiles(t *testing.T) {
	var want *Metrics
	var wantTrace []byte
	for _, tiles := range []int{0, 3} {
		for _, par := range []int{1, 2, 8} {
			cfg := passConfig()
			cfg.FrameParallel = par
			cfg.Tiles = tiles
			var buf bytes.Buffer
			cfg.Trace = trace.NewCSV(&buf)
			e, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(e.voice) == 0 {
				t.Fatal("scenario has no voice users")
			}
			m, err := e.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				if m.BitsDelivered <= 0 {
					t.Fatal("no bits delivered; the serving-burst half of the pass never ran")
				}
				want, wantTrace = m, buf.Bytes()
				continue
			}
			if !reflect.DeepEqual(m, want) {
				t.Errorf("tiles=%d par=%d: metrics diverged:\n got  %+v\n want %+v", tiles, par, m, want)
			}
			if !bytes.Equal(buf.Bytes(), wantTrace) {
				t.Errorf("tiles=%d par=%d: trace bytes diverged", tiles, par)
			}
		}
	}
}

// TestResumeRejectsTwoBurstsForOneUser: a user has at most one outstanding
// request and so at most one burst, which the serving link relies on. A
// checkpoint naming one user in two bursts must be refused.
func TestResumeRejectsTwoBurstsForOneUser(t *testing.T) {
	cfg := passConfig()
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for f := 0; len(e.bursts) == 0; f++ {
		if f == 200 {
			t.Fatal("no burst was ever granted")
		}
		e.now = float64(f) * cfg.FrameLength
		e.step()
	}
	dup := *e.bursts[0]
	e.bursts = append(e.bursts, &dup)
	var blob bytes.Buffer
	if err := e.Checkpoint(&blob); err != nil {
		t.Fatal(err)
	}
	c, err := ReadCheckpoint(&blob)
	if err != nil {
		t.Fatal(err)
	}
	if r, err := c.Resume(c.Config()); err == nil {
		r.Close()
		t.Fatal("resume accepted two bursts for one user")
	}
}
