package model

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"strings"
	"testing"

	"lbchat/internal/nn"
	"lbchat/internal/simrand"
)

func TestMarshalRoundTrip(t *testing.T) {
	cfg := tinyConfig()
	pol, _ := New(cfg, 3)
	rng := simrand.New(9)
	data := syntheticSet(cfg, 64, rng)
	for i := 0; i < 50; i++ {
		pol.TrainStep(data)
	}
	blob, err := pol.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	fresh, _ := New(cfg, 99)
	if err := fresh.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	// float32 wire precision: losses match to ~1e-6 relative.
	a, b := pol.Loss(data), fresh.Loss(data)
	if math.Abs(a-b) > 1e-5*(1+math.Abs(a)) {
		t.Errorf("loaded policy loss %v, want %v", b, a)
	}
}

// TestUnmarshalRejectsMismatch requires every rejection to wrap
// ErrBadModelBlob, a body the wire format refuses to wrap
// nn.ErrBadWireFormat besides, and a blob of the previous format to be named
// as such.
func TestUnmarshalRejectsMismatch(t *testing.T) {
	cfg := tinyConfig()
	pol, _ := New(cfg, 3)
	blob, _ := pol.MarshalBinary()
	other := cfg
	other.Hidden = 24
	wrong, _ := New(other, 3)

	bad := append([]byte(nil), blob...)
	bad[0] ^= 0xFF
	// A blob of the previous format, which carried two more header words.
	v1 := append(binary.LittleEndian.AppendUint32(nil, persistMagicV1), make([]byte, 8*4)...)
	v1 = append(v1, nn.Serialize(pol.Flat())...)
	// A header whose params word matches the policy in front of a
	// well-formed wire body one parameter short.
	flat := pol.Flat()
	miscounted := append(append([]byte(nil), blob[:persistHdrSize]...), nn.Serialize(flat[:len(flat)-1])...)

	for _, tc := range []struct {
		name     string
		into     *Policy
		blob     []byte
		wire     bool   // the nn wire format refuses the body
		mentions string // the error names this
	}{
		{"architecture mismatch", wrong, blob, false, ""},
		{"truncated header", pol, blob[:10], false, ""},
		{"bad magic", pol, bad, false, ""},
		{"previous blob version", pol, v1, false, "LbP1"},
		{"short parameter payload", pol, blob[:len(blob)-4], true, ""},
		{"wire count differs from header", pol, miscounted, false, ""},
	} {
		err := tc.into.UnmarshalBinary(tc.blob)
		switch {
		case err == nil:
			t.Errorf("%s accepted", tc.name)
		case !errors.Is(err, ErrBadModelBlob):
			t.Errorf("%s: %v does not wrap ErrBadModelBlob", tc.name, err)
		case tc.wire && !errors.Is(err, nn.ErrBadWireFormat):
			t.Errorf("%s: %v does not wrap nn.ErrBadWireFormat", tc.name, err)
		case !strings.Contains(err.Error(), tc.mentions):
			t.Errorf("%s: %v does not name %s", tc.name, err, tc.mentions)
		}
	}
}

// FuzzPolicyUnmarshal feeds arbitrary bytes to a tiny policy's
// UnmarshalBinary. It must not panic, every rejection must wrap
// ErrBadModelBlob, and an accepted blob must marshal back to itself: the
// stored parameters are float32, which the float64 round trip keeps exactly
// — up to the payload bits of a NaN, which only need to stay a NaN.
func FuzzPolicyUnmarshal(f *testing.F) {
	// 46 parameters: a blob of 220 bytes keeps the fuzzer's minimization
	// short.
	cfg := tinyConfig()
	cfg.BEVChannels, cfg.BEVHeight, cfg.BEVWidth = 1, 2, 2
	cfg.Hidden, cfg.NumWaypoints = 2, 1
	pol, _ := New(cfg, 3)
	blob, _ := pol.MarshalBinary()
	for _, n := range []int{0, 10, persistHdrSize, persistHdrSize + 8, len(blob) - 1, len(blob)} {
		f.Add(blob[:n])
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		p := pol.Clone()
		if err := p.UnmarshalBinary(raw); err != nil {
			if !errors.Is(err, ErrBadModelBlob) {
				t.Fatalf("rejection %v does not wrap ErrBadModelBlob", err)
			}
			return
		}
		out, _ := p.MarshalBinary()
		if len(out) != len(raw) {
			t.Fatalf("accepted a %d-byte blob that marshals to %d bytes", len(raw), len(out))
		}
		const body = persistHdrSize + 8 // both headers, then one float32 per parameter
		if !bytes.Equal(out[:body], raw[:body]) {
			t.Fatalf("headers re-marshal as %x, accepted %x", out[:body], raw[:body])
		}
		for at := body; at < len(raw); at += 4 {
			got := math.Float32frombits(binary.LittleEndian.Uint32(out[at:]))
			want := math.Float32frombits(binary.LittleEndian.Uint32(raw[at:]))
			bothNaN := math.IsNaN(float64(got)) && math.IsNaN(float64(want))
			if math.Float32bits(got) != math.Float32bits(want) && !bothNaN {
				t.Fatalf("parameter at byte %d re-marshals as %v, accepted %v", at, got, want)
			}
		}
	})
}
