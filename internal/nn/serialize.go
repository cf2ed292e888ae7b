package nn

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Wire format: a little-endian header (magic, element count) followed by the
// flat parameter vector as float64 values, the training representation bit
// for bit, so a decoded vector is the encoded one.
const (
	wireMagic = 0x4C624368 // "LbCh"
	// BytesPerParam is the encoded size of one model parameter.
	BytesPerParam = 8
	headerBytes   = 8
)

// ErrBadWireFormat is returned when deserialization encounters a corrupt or
// truncated payload.
var ErrBadWireFormat = errors.New("nn: bad wire format")

// Serialize encodes a flat parameter vector into wire bytes.
func Serialize(flat []float64) []byte {
	buf := make([]byte, headerBytes+BytesPerParam*len(flat))
	binary.LittleEndian.PutUint32(buf[0:4], wireMagic)
	binary.LittleEndian.PutUint32(buf[4:8], uint32(len(flat)))
	for i, v := range flat {
		binary.LittleEndian.PutUint64(buf[headerBytes+BytesPerParam*i:], math.Float64bits(v))
	}
	return buf
}

// Deserialize decodes wire bytes produced by Serialize.
func Deserialize(buf []byte) ([]float64, error) {
	if len(buf) < headerBytes {
		return nil, fmt.Errorf("%w: payload too short (%d bytes)", ErrBadWireFormat, len(buf))
	}
	if binary.LittleEndian.Uint32(buf[0:4]) != wireMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadWireFormat)
	}
	n := int(binary.LittleEndian.Uint32(buf[4:8]))
	if len(buf) != headerBytes+BytesPerParam*n {
		return nil, fmt.Errorf("%w: expected %d bytes for %d params, got %d",
			ErrBadWireFormat, headerBytes+BytesPerParam*n, n, len(buf))
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[headerBytes+BytesPerParam*i:]))
	}
	return out, nil
}
