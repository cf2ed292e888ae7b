package model

import (
	"encoding/binary"
	"errors"
	"fmt"

	"lbchat/internal/nn"
)

// Persistence: trained policies serialize to a self-describing byte blob —
// a fixed header carrying the architecture so a loader can verify shape
// compatibility, followed by the nn wire-format parameter vector, float64
// bit for bit, so a loaded policy predicts exactly as the saved one did.
// lbchat-sim -save-fleet writes a trained fleet's blobs and -load-fleet
// drives them.

const (
	persistMagic   = 0x4C625033 // "LbP3"
	persistHdrSize = 4 + 6*4    // magic + 6 uint32 architecture fields
	// persistMagicV2 ("LbP2") headed blobs whose parameters were float32,
	// and persistMagicV1 ("LbP1") those of the conv-capable policy, whose
	// header carried two more words; both are rejected, not migrated.
	persistMagicV2 = 0x4C625032
	persistMagicV1 = 0x4C625031
)

// ErrBadModelBlob is wrapped by every error UnmarshalBinary returns: a
// payload that fails validation, header or body. A body the nn wire format
// refuses wraps nn.ErrBadWireFormat as well.
var ErrBadModelBlob = errors.New("model: bad model blob")

// MarshalBinary encodes the policy's architecture and parameters.
func (p *Policy) MarshalBinary() ([]byte, error) {
	hdr := make([]byte, persistHdrSize)
	binary.LittleEndian.PutUint32(hdr[0:], persistMagic)
	for i, f := range p.headerWords() {
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
	switch binary.LittleEndian.Uint32(blob[0:]) {
	case persistMagic:
	case persistMagicV1, persistMagicV2:
		// The magic's low byte, first in little-endian order, is its digit.
		return fmt.Errorf("%w: format LbP%c is older than this build's LbP3; save the fleet again with lbchat-sim -save-fleet",
			ErrBadModelBlob, blob[0])
	default:
		return fmt.Errorf("%w: bad magic", ErrBadModelBlob)
	}
	get := func(i int) uint32 { return binary.LittleEndian.Uint32(blob[4+4*i:]) }
	names := []string{"channels", "height", "width", "hidden", "waypoints", "params"}
	for i, w := range p.headerWords() {
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

// headerWords are the architecture words a blob's header carries after the
// magic, in order.
func (p *Policy) headerWords() []uint32 {
	cfg := p.cfg
	return []uint32{
		uint32(cfg.BEVChannels), uint32(cfg.BEVHeight), uint32(cfg.BEVWidth),
		uint32(cfg.Hidden), uint32(cfg.NumWaypoints),
		uint32(p.NumParams()),
	}
}
