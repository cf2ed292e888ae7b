package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
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

// hashedRun is one memoised TestScale run with the hashes of everything it
// produced.
type hashedRun struct {
	run  *ProtocolRun
	hash streamHash
}

var hashedRuns = map[string]hashedRun{}

func goldenKey(name ProtocolName, lossless bool) string {
	if lossless {
		return string(name) + "/lossless"
	}
	return string(name) + "/lossy"
}

// goldenRun trains one protocol on the shared test env with a full event
// sink attached and returns the run with the hashes of its JSONL-encoded
// event stream and every vehicle's final parameter bits. Runs are memoised
// so the tests that only need "every protocol ran and learned" share them
// with the golden comparison.
func goldenRun(t *testing.T, name ProtocolName, lossless bool) (*ProtocolRun, streamHash) {
	t.Helper()
	key := goldenKey(name, lossless)
	if r, ok := hashedRuns[key]; ok {
		return r.run, r.hash
	}
	mem := telemetry.NewMemorySink()
	env := envWithSink(t, mem)
	run, err := env.RunProtocol(name, lossless, nil)
	if err != nil {
		t.Fatalf("%s: %v", key, err)
	}
	r := hashedRun{run: run, hash: runHash(t, mem, run, goldenWindow*env.Cfg.TickSeconds)}
	hashedRuns[key] = r
	return r.run, r.hash
}

// goldenWindow is the width of a stream window, in engine ticks.
const goldenWindow = 100

// streamHash is what the golden file keeps of one run. Hash is the SHA-256
// of the JSONL-encoded event stream, as its sink received it, followed by
// every vehicle's final parameter bits: the one value that must match.
// The rest localises a mismatch. Windows[i] is a rolling hash of the lines
// up to the end of window i (events at virtual time below (i+1)·width; an
// event with no time, such as run_started, falls in window 0), Kinds[k][i]
// the same over only the lines of kind k, and Params the hash of the final
// parameters alone.
type streamHash struct {
	Hash    string              `json:"hash"`
	Params  string              `json:"params"`
	Windows []string            `json:"windows"`
	Kinds   map[string][]string `json:"kinds"`
}

// rolling is a hash that can report its running value.
type rolling struct{ h hash.Hash }

func newRolling() *rolling { return &rolling{sha256.New()} }

func (r *rolling) sum() string { return hex.EncodeToString(r.h.Sum(nil))[:16] }

// runHash hashes a run's JSONL-encoded event stream, as its sink received
// it, and every vehicle's final parameter bits, window by window of width
// seconds of virtual time.
func runHash(t *testing.T, mem *telemetry.MemorySink, run *ProtocolRun, width float64) streamHash {
	t.Helper()
	whole, params := sha256.New(), sha256.New()
	all := newRolling()
	byKind := map[string]*rolling{}
	out := streamHash{Kinds: map[string][]string{}}
	// closeTo fills every hash list up to window w.
	closeTo := func(w int) {
		for len(out.Windows) <= w {
			out.Windows = append(out.Windows, all.sum())
			for k, r := range byKind {
				for len(out.Kinds[k]) < len(out.Windows) {
					out.Kinds[k] = append(out.Kinds[k], r.sum())
				}
			}
		}
	}
	for _, line := range encodedLines(t, mem) {
		kind, at := lineKindTime(t, line)
		if w := int(math.Floor(at / width)); w > len(out.Windows) {
			closeTo(w - 1)
		}
		r := byKind[kind]
		if r == nil {
			r = newRolling()
			byKind[kind] = r
			// A kind first seen now held nothing in the windows closed so far.
			for range out.Windows {
				out.Kinds[kind] = append(out.Kinds[kind], r.sum())
			}
		}
		for _, h := range []hash.Hash{whole, all.h, r.h} {
			h.Write(line)
			h.Write([]byte{'\n'})
		}
	}
	closeTo(len(out.Windows))
	var buf [8]byte
	for _, p := range run.Fleet {
		for _, x := range p.Flat() {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
			whole.Write(buf[:])
			params.Write(buf[:])
		}
	}
	out.Hash = hex.EncodeToString(whole.Sum(nil))
	out.Params = hex.EncodeToString(params.Sum(nil))[:16]
	return out
}

// lineKindTime reads an encoded event line's kind and virtual time (0 for
// an event that carries none).
func lineKindTime(t *testing.T, line []byte) (string, float64) {
	t.Helper()
	var env struct {
		Kind string `json:"kind"`
		Ev   struct {
			Time float64 `json:"time"`
		} `json:"ev"`
	}
	if err := json.Unmarshal(line, &env); err != nil {
		t.Fatalf("decoding %s: %v", line, err)
	}
	return env.Kind, env.Ev.Time
}

// divergence names where got first departs from want: the first window
// whose rolling hash differs, the kinds whose own hashes first differ
// there, and whether the final parameters moved.
func divergence(got, want streamHash, width float64) string {
	w := 0
	for w < len(got.Windows) && w < len(want.Windows) && got.Windows[w] == want.Windows[w] {
		w++
	}
	differs := func(k string, i int) bool {
		g, wk := got.Kinds[k], want.Kinds[k]
		return i >= len(g) || i >= len(wk) || g[i] != wk[i]
	}
	var kinds []string
	for k := range got.Kinds {
		if differs(k, w) && (w == 0 || !differs(k, w-1)) {
			kinds = append(kinds, k)
		}
	}
	for k := range want.Kinds {
		if _, ok := got.Kinds[k]; !ok {
			kinds = append(kinds, k+" (gone)")
		}
	}
	slices.Sort(kinds)
	where := "the event streams agree"
	if w < max(len(got.Windows), len(want.Windows)) {
		where = fmt.Sprintf("first divergence in window %d (t %g–%g s), kinds %s", w, float64(w)*width, float64(w+1)*width, strings.Join(kinds, ", "))
	}
	if got.Params != want.Params {
		return where + "; the final parameters moved"
	}
	return where + "; the final parameters agree"
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
	got := map[string]streamHash{}
	for _, name := range goldenProtocols {
		for _, lossless := range []bool{true, false} {
			_, got[goldenKey(name, lossless)] = goldenRun(t, name, lossless)
		}
	}
	if *update {
		raw, err := json.MarshalIndent(got, "", " ")
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
	var want map[string]streamHash
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("decoding %s: %v", goldenStreamsPath, err)
	}
	if len(want) != len(got) {
		t.Errorf("golden file holds %d runs, this tree made %d", len(want), len(got))
	}
	width := goldenWindow * getEnv(t).Cfg.TickSeconds
	keys := make([]string, 0, len(got))
	for key := range got {
		keys = append(keys, key)
	}
	slices.Sort(keys)
	for _, key := range keys {
		if g, w := got[key], want[key]; g.Hash != w.Hash {
			t.Errorf("%s hash = %s, golden %s: %s", key, g.Hash, w.Hash, divergence(g, w, width))
		}
	}
}

const goldenSummaryPath = "testdata/golden_summary.csv"

// clockFedMetrics are the Summary rows the wall clock feeds — per-vehicle
// train time and the time chunk loads blocked — so they differ run to run
// and stay out of the golden.
var clockFedMetrics = []string{telemetry.MTrainWallNs, telemetry.MTraceFetchWaitNs}

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
