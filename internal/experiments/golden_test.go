package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"

	"lbchat/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite testdata/golden_streams.json from this tree's runs")

const goldenStreamsPath = "testdata/golden_streams.json"

// goldenProtocols is the lineup whose runs are pinned: the Fig. 2 protocols
// plus the three ablation variants.
var goldenProtocols = append(slices.Clone(paperLineup), ProtoSCO, ProtoEqualComp, ProtoAvgAgg)

// hashedRun is one memoised TestScale run with the hash of everything it
// produced.
type hashedRun struct {
	run  *ProtocolRun
	hash string
}

var hashedRuns = map[string]hashedRun{}

func goldenKey(name ProtocolName, lossless bool) string {
	if lossless {
		return string(name) + "/lossless"
	}
	return string(name) + "/lossy"
}

// goldenRun trains one protocol on the shared test env with a full event
// sink attached and returns the run with the SHA-256 of its JSONL-encoded
// event stream followed by every vehicle's final parameter bits. Runs are
// memoised so the tests that only need "every protocol ran and learned"
// share them with the golden comparison.
func goldenRun(t *testing.T, name ProtocolName, lossless bool) (*ProtocolRun, string) {
	t.Helper()
	key := goldenKey(name, lossless)
	if r, ok := hashedRuns[key]; ok {
		return r.run, r.hash
	}
	mem := telemetry.NewMemorySink()
	run, err := envWithSink(t, mem).RunProtocol(name, lossless, nil)
	if err != nil {
		t.Fatalf("%s: %v", key, err)
	}
	h := sha256.New()
	for _, ev := range mem.Events() {
		line, err := telemetry.Encode(ev)
		if err != nil {
			t.Fatalf("%s: encoding %s: %v", key, ev.Kind(), err)
		}
		h.Write(line)
		h.Write([]byte{'\n'})
	}
	var buf [8]byte
	for _, p := range run.Fleet {
		for _, x := range p.Flat() {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
			h.Write(buf[:])
		}
	}
	r := hashedRun{run: run, hash: hex.EncodeToString(h.Sum(nil))}
	hashedRuns[key] = r
	return r.run, r.hash
}

// TestGoldenEventStreams pins behaviour across commits: every protocol's
// event stream and final parameters at TestScale, lossless and lossy, must
// hash to the committed goldens. Determinism tests compare arms inside one
// commit; this is what notices a refactor that moved both arms together. A
// change that is meant to alter the stream re-baselines explicitly with
// `go test ./internal/experiments -run Golden -update`.
func TestGoldenEventStreams(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("goldens are recorded on amd64; fused multiply-add changes float bits elsewhere")
	}
	got := map[string]string{}
	for _, name := range goldenProtocols {
		for _, lossless := range []bool{true, false} {
			_, got[goldenKey(name, lossless)] = goldenRun(t, name, lossless)
		}
	}
	if *update {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenStreamsPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenStreamsPath)
	if err != nil {
		t.Fatalf("reading goldens (record them with -update): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("decoding %s: %v", goldenStreamsPath, err)
	}
	if len(want) != len(got) {
		t.Errorf("golden file holds %d runs, this tree made %d", len(want), len(got))
	}
	for key, sum := range got {
		if want[key] != sum {
			t.Errorf("%s hash = %s, golden %s", key, sum, want[key])
		}
	}
}

const goldenSummaryPath = "testdata/golden_summary.csv"

// clockFedMetrics are the Summary rows the wall clock feeds — per-vehicle
// train time, and the prefetch pipeline whose depth adapts to measured fetch
// latency — so they differ run to run and stay out of the golden.
var clockFedMetrics = []string{
	telemetry.MTrainWallNs, telemetry.MTracePrefetches, telemetry.MTracePrefetchDepth,
	telemetry.MTraceResident, telemetry.MTraceFetchWaitNs,
}

// TestGoldenSummaryRegistry pins the aggregate side of a run across commits:
// the Summary registry of one lossy LbChat run over a streamed trace — every
// event-fed counter and histogram plus the sched, skin-list, coreset-tree
// and chunk load/evict side-channel rows — must render the
// committed CSV once the clock-fed rows are dropped. TestGoldenEventStreams
// cannot see this half: side-channel values never reach the event stream.
func TestGoldenSummaryRegistry(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("goldens are recorded on amd64; fused multiply-add changes float bits elsewhere")
	}
	run, err := getStreamedEnv(t).RunProtocol(ProtoLbChat, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	var csv bytes.Buffer
	if err := run.Comm.Reg.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	var got []byte
	for _, row := range bytes.SplitAfter(csv.Bytes(), []byte{'\n'}) {
		if f := strings.SplitN(string(row), ",", 3); len(f) < 2 || !slices.Contains(clockFedMetrics, f[1]) {
			got = append(got, row...)
		}
	}
	if *update {
		if err := os.WriteFile(goldenSummaryPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenSummaryPath)
	if err != nil {
		t.Fatalf("reading golden (record it with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("summary registry moved:\ngot:\n%s\ngolden:\n%s", got, want)
	}
}
