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
	// The blob stores float64: the loaded parameters are the trained ones.
	want, got := pol.Flat(), fresh.Flat()
	if len(got) != len(want) {
		t.Fatalf("loaded %d parameters, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("parameter %d loads as %v, trained %v", i, got[i], want[i])
		}
	}
}

// TestUnmarshalRejectsMismatch requires every rejection to wrap
// ErrBadModelBlob, a body the wire format refuses to wrap
// nn.ErrBadWireFormat besides, and a blob of a previous format to be named
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
	// A blob of the conv-capable format, which carried two more header words.
	v1 := append(binary.LittleEndian.AppendUint32(nil, persistMagicV1), make([]byte, 8*4)...)
	v1 = append(v1, nn.Serialize(pol.Flat())...)
	// A blob of the float32 format: this header, four bytes a parameter.
	v2 := binary.LittleEndian.AppendUint32(nil, persistMagicV2)
	v2 = append(v2, blob[4:persistHdrSize]...)
	v2 = append(v2, blob[persistHdrSize:persistHdrSize+8]...)
	v2 = append(v2, make([]byte, 4*pol.NumParams())...)
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
		{"conv-capable blob version", pol, v1, false, "LbP1"},
		{"float32 blob version", pol, v2, false, "LbP2"},
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
// ErrBadModelBlob, and an accepted blob must marshal back to itself byte for
// byte: the stored parameters are float64, which load and store unchanged.
func FuzzPolicyUnmarshal(f *testing.F) {
	// 46 parameters: a blob of 404 bytes keeps the fuzzer's minimization
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
		if out, _ := p.MarshalBinary(); !bytes.Equal(out, raw) {
			t.Fatalf("accepted blob re-marshals as %x, accepted %x", out, raw)
		}
	})
}
