package model

import (
	"encoding/binary"
	"errors"
	"fmt"

	"lbchat/internal/nn"
)

// Persistence: trained policies serialize to a self-describing byte blob —
// a fixed header carrying the architecture so a loader can verify shape
// compatibility, followed by the nn wire-format parameter vector. Used by
// the CLI tools to hand trained fleets between training and evaluation runs.

const (
	persistMagic   = 0x4C625031 // "LbP1"
	persistHdrSize = 4 + 8*4    // magic + 8 uint32 architecture fields
)

// ErrBadModelBlob is wrapped by every error UnmarshalBinary returns: a
// payload that fails validation, header or body. A body the nn wire format
// refuses wraps nn.ErrBadWireFormat as well.
var ErrBadModelBlob = errors.New("model: bad model blob")

// MarshalBinary encodes the policy's architecture and parameters.
func (p *Policy) MarshalBinary() ([]byte, error) {
	cfg := p.cfg
	hdr := make([]byte, persistHdrSize)
	binary.LittleEndian.PutUint32(hdr[0:], persistMagic)
	fields := []uint32{
		uint32(cfg.BEVChannels), uint32(cfg.BEVHeight), uint32(cfg.BEVWidth),
		boolWord(cfg.UseConv), uint32(cfg.ConvChannels),
		uint32(cfg.Hidden), uint32(cfg.NumWaypoints),
		uint32(p.NumParams()),
	}
	for i, f := range fields {
		binary.LittleEndian.PutUint32(hdr[4+4*i:], f)
	}
	return append(hdr, nn.Serialize(p.Flat())...), nil
}

// UnmarshalBinary loads parameters from a blob produced by MarshalBinary.
// The blob's architecture must match the policy's.
func (p *Policy) UnmarshalBinary(blob []byte) error {
	if len(blob) < persistHdrSize {
		return fmt.Errorf("%w: %d bytes", ErrBadModelBlob, len(blob))
	}
	if binary.LittleEndian.Uint32(blob[0:]) != persistMagic {
		return fmt.Errorf("%w: bad magic", ErrBadModelBlob)
	}
	get := func(i int) uint32 { return binary.LittleEndian.Uint32(blob[4+4*i:]) }
	cfg := p.cfg
	want := []uint32{
		uint32(cfg.BEVChannels), uint32(cfg.BEVHeight), uint32(cfg.BEVWidth),
		boolWord(cfg.UseConv), uint32(cfg.ConvChannels),
		uint32(cfg.Hidden), uint32(cfg.NumWaypoints),
		uint32(p.NumParams()),
	}
	names := []string{"channels", "height", "width", "conv", "convChannels", "hidden", "waypoints", "params"}
	for i, w := range want {
		if got := get(i); got != w {
			return fmt.Errorf("%w: %s mismatch (blob %d, policy %d)", ErrBadModelBlob, names[i], got, w)
		}
	}
	flat, err := nn.Deserialize(blob[persistHdrSize:])
	if err != nil {
		return fmt.Errorf("%w: decoding parameters: %w", ErrBadModelBlob, err)
	}
	// The header's params word matched; the wire body's own count must too.
	if err := p.SetFlat(flat); err != nil {
		return fmt.Errorf("%w: %w", ErrBadModelBlob, err)
	}
	return nil
}

func boolWord(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}
