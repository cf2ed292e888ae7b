package telemetry

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzTelemetryDecode feeds Decode arbitrary lines: it must never panic, and
// every line it decodes must survive Encode and Decode again as the same
// event, encoded to the same bytes — a stream a reader accepts is one the
// writer can reproduce.
func FuzzTelemetryDecode(f *testing.F) {
	for _, ev := range allEventKinds {
		line, err := Encode(ev)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(line)
	}
	f.Add([]byte(`{"kind":"transfer","ev":{"from":"x"}}`))
	f.Add([]byte(`{"kind":"train_step","ev":null}`))
	f.Add([]byte(`{"kind":"contact_open","ev":{"time":-0,"a":1e3,"b":2,"extra":[1]}}`))
	f.Fuzz(func(t *testing.T, line []byte) {
		ev, err := Decode(line)
		if err != nil {
			return
		}
		enc, err := Encode(ev)
		if err != nil {
			t.Fatalf("decoded %#v, which does not encode: %v", ev, err)
		}
		back, err := Decode(enc)
		if err != nil {
			t.Fatalf("encoded %s, which does not decode: %v", enc, err)
		}
		if !reflect.DeepEqual(back, ev) {
			t.Fatalf("round trip %#v → %s → %#v", ev, enc, back)
		}
		again, err := Encode(back)
		if err != nil || !bytes.Equal(again, enc) {
			t.Fatalf("re-encoding %s gave %s (%v)", enc, again, err)
		}
	})
}
