package replay

import (
	"bytes"
	"os"
	"testing"

	"jabasd/internal/core"
)

// FuzzReadTrace feeds arbitrary bytes through the replay path: ReadTrace,
// then Resolve under FCFS and the greedy JABA-SD. It is seeded with the
// golden smoke trace, a short prefix of it, and the damaged traces the
// engine's replay tests reject. The invariant: either step may return an
// error, but neither may panic, whatever shape the recorded requests and
// regions have.
func FuzzReadTrace(f *testing.F) {
	golden, err := os.ReadFile("../../testdata/golden/solve-trace-smoke.jsonl")
	if err != nil {
		f.Fatal(err)
	}
	lines := bytes.SplitAfter(golden, []byte("\n"))
	if len(lines) < 3 {
		f.Fatalf("golden trace too short (%d lines)", len(lines))
	}
	header := lines[0]
	withLine := func(line string) []byte {
		return append(append([]byte{}, header...), line+"\n"...)
	}
	f.Add(golden)
	f.Add(bytes.Join(lines[:3], nil))
	f.Add([]byte{})
	f.Add([]byte("{\"format\":\"bogus/v9\"}\n"))
	f.Add(withLine("not json"))
	f.Add(withLine(`{"frame":0,"cell":0,"requests":[{"user_id":1}],"ratios":[]}`))
	f.Add(withLine(`{"frame":0,"cell":0,"requests":[{"AvgThroughput":0.5,"MaxRatio":4}],` +
		`"region":{"Coeff":[[1],[2]],"Bound":[5]},"ratios":[0]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		hdr, problems, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, sched := range []core.Scheduler{&core.FCFS{}, &core.GreedyJABASD{}} {
			Resolve(hdr, problems, sched, hdr.Objective)
		}
	})
}
