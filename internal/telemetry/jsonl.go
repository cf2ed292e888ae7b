package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// envelope is the JSONL wire format: one event per line, tagged by kind so
// readers can dispatch to the right type.
type envelope struct {
	Kind string          `json:"kind"`
	Ev   json.RawMessage `json:"ev"`
}

// Encode marshals one event into its JSONL line (without the newline).
func Encode(ev Event) ([]byte, error) {
	raw, err := json.Marshal(ev)
	if err != nil {
		return nil, fmt.Errorf("telemetry: marshaling %s: %w", ev.Kind(), err)
	}
	return json.Marshal(envelope{Kind: ev.Kind(), Ev: raw})
}

// decode unmarshals a raw payload into a concrete event type.
func decode[T Event](raw json.RawMessage) (Event, error) {
	var v T
	if err := json.Unmarshal(raw, &v); err != nil {
		return nil, err
	}
	return v, nil
}

// decoders dispatches envelope kinds to typed decoders.
var decoders = map[string]func(json.RawMessage) (Event, error){
	KindRunStarted:        decode[RunStarted],
	KindRunFinished:       decode[RunFinished],
	KindChatInitiated:     decode[ChatInitiated],
	KindChatCompleted:     decode[ChatCompleted],
	KindChatAborted:       decode[ChatAborted],
	KindCompressionChosen: decode[CompressionChosen],
	KindTransfer:          decode[Transfer],
	KindAggregation:       decode[Aggregation],
	KindCoresetAbsorbed:   decode[CoresetAbsorbed],
	KindCoresetEvicted:    decode[CoresetEvicted],
	KindCoresetRebuilt:    decode[CoresetRebuilt],
	KindContactOpen:       decode[ContactOpen],
	KindContactClose:      decode[ContactClose],
	KindTrainStep:         decode[TrainStep],
	KindLossRecorded:      decode[LossRecorded],
	KindFaultInjected:     decode[FaultInjected],
	KindChatResumed:       decode[ChatResumed],
	KindPartialSalvage:    decode[PartialSalvage],
}

// Decode parses one JSONL line back into its typed event.
func Decode(line []byte) (Event, error) {
	var env envelope
	if err := json.Unmarshal(line, &env); err != nil {
		return nil, fmt.Errorf("telemetry: bad envelope: %w", err)
	}
	dec, ok := decoders[env.Kind]
	if !ok {
		return nil, fmt.Errorf("telemetry: unknown event kind %q", env.Kind)
	}
	ev, err := dec(env.Ev)
	if err != nil {
		return nil, fmt.Errorf("telemetry: decoding %s: %w", env.Kind, err)
	}
	return ev, nil
}

// ReadJSONL decodes every non-empty line of r.
func ReadJSONL(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var out []Event
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		ev, err := Decode(line)
		if err != nil {
			return out, fmt.Errorf("line %d: %w", lineNo, err)
		}
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		return out, err
	}
	return out, nil
}

// JSONL streams events to a writer, one envelope-tagged JSON object per
// line. It deliberately does NOT implement Observer: its output stays a pure
// function of the simulation, bit-identical at every worker count.
type JSONL struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	c   io.Closer
	err error
}

// NewJSONL wraps a writer as a JSONL event sink. When w is also an
// io.Closer, Close closes it after flushing.
func NewJSONL(w io.Writer) *JSONL {
	j := &JSONL{bw: bufio.NewWriter(w)}
	if c, ok := w.(io.Closer); ok {
		j.c = c
	}
	return j
}

// Emit implements Sink. The first write or encode error is retained and
// returned by Close; later events are dropped.
func (j *JSONL) Emit(ev Event) {
	line, err := Encode(ev)
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return
	}
	if err != nil {
		j.err = err
		return
	}
	if _, err := j.bw.Write(line); err != nil {
		j.err = err
		return
	}
	if err := j.bw.WriteByte('\n'); err != nil {
		j.err = err
	}
}

// Close implements Sink: flushes, closes the underlying writer when it is a
// Closer, and reports the first error seen anywhere in the sink's life.
func (j *JSONL) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.bw.Flush(); err != nil && j.err == nil {
		j.err = err
	}
	if j.c != nil {
		if err := j.c.Close(); err != nil && j.err == nil {
			j.err = err
		}
		j.c = nil
	}
	return j.err
}
