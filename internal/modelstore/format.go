package modelstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/ml"
	"repro/internal/ml/forest"
	"repro/internal/ml/knn"
	"repro/internal/ml/xgb"
)

// The on-disk envelope, all little-endian:
//
//	offset  size  field
//	0       4     magic "PVMS"
//	4       2     format version
//	6       1     model kind
//	7       1     reserved (zero)
//	8       8     dataset fingerprint
//	16      4     payload length N
//	20      N     payload (model codec output)
//	20+N    4     CRC32 (IEEE) over bytes [0, 20+N)
const (
	magic       = "PVMS"
	headerSize  = 4 + 2 + 1 + 1 + 8 + 4
	trailerSize = 4
)

// FormatVersion is the current on-disk format revision. Bump it on any
// incompatible envelope or payload change; old files are rejected with
// ErrVersionSkew and treated as a miss (refit and overwrite). Version 2
// stores tree models as their node tables (internal/ml/tree.Table);
// version 1 stored recursive pointer trees.
const FormatVersion uint16 = 2

// Kind identifies the serialized model family.
type Kind uint8

// The storable families. Ridge (the linear baseline) deliberately has
// no codec: it fits in microseconds, so persistence would only add
// failure modes.
const (
	KindUnknown Kind = iota
	KindForest
	KindXGB
	KindKNN
)

// String names the kind for spans and error messages.
func (k Kind) String() string {
	switch k {
	case KindForest:
		return "forest"
	case KindXGB:
		return "xgb"
	case KindKNN:
		return "knn"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Typed rejection errors, matched with errors.Is. Every one of them
// means "do not trust this file"; the registry maps them all to a cache
// miss that refits and overwrites.
var (
	// ErrBadMagic reports a file that is not a model file at all.
	ErrBadMagic = errors.New("modelstore: not a model file")
	// ErrVersionSkew reports a file written by an incompatible format
	// revision (e.g. a newer binary's store read by an older one).
	ErrVersionSkew = errors.New("modelstore: unsupported format version")
	// ErrCorrupt reports a file whose checksum or payload structure is
	// damaged.
	ErrCorrupt = errors.New("modelstore: corrupt model file")
	// ErrTruncated reports a file shorter than its envelope claims.
	ErrTruncated = errors.New("modelstore: truncated model file")
	// ErrUnknownKind reports a structurally valid envelope carrying a
	// model family this binary cannot decode.
	ErrUnknownKind = errors.New("modelstore: unknown model kind")
	// ErrUnsupportedModel reports an attempt to encode a family without
	// a codec (e.g. the Ridge baseline).
	ErrUnsupportedModel = errors.New("modelstore: model family not serializable")
	// ErrNotFound reports a key with no file in the store.
	ErrNotFound = errors.New("modelstore: model not found")
	// ErrFingerprint reports a file whose recorded dataset fingerprint
	// does not match the data the caller is predicting for.
	ErrFingerprint = errors.New("modelstore: dataset fingerprint mismatch")
)

// Header is the decoded envelope metadata.
type Header struct {
	Version     uint16
	Kind        Kind
	Fingerprint uint64
}

// KindOf maps a regressor to its serialization kind (KindUnknown and
// false for families without a codec).
func KindOf(reg ml.Regressor) (Kind, bool) {
	switch reg.(type) {
	case *forest.Regressor:
		return KindForest, true
	case *xgb.Regressor:
		return KindXGB, true
	case *knn.Regressor:
		return KindKNN, true
	default:
		return KindUnknown, false
	}
}

// Encode serializes a fitted regressor into the versioned envelope,
// stamping the dataset fingerprint the model was trained on.
func Encode(reg ml.Regressor, fingerprint uint64) ([]byte, error) {
	enc := &ml.WireEnc{}
	kind, ok := KindOf(reg)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnsupportedModel, reg.Name())
	}
	var err error
	switch m := reg.(type) {
	case *forest.Regressor:
		err = m.AppendWire(enc)
	case *xgb.Regressor:
		err = m.AppendWire(enc)
	case *knn.Regressor:
		err = m.AppendWire(enc)
	}
	if err != nil {
		return nil, fmt.Errorf("modelstore: encode %s: %w", kind, err)
	}
	payload := enc.Bytes()
	buf := make([]byte, 0, headerSize+len(payload)+trailerSize)
	buf = append(buf, magic...)
	buf = binary.LittleEndian.AppendUint16(buf, FormatVersion)
	buf = append(buf, byte(kind), 0)
	buf = binary.LittleEndian.AppendUint64(buf, fingerprint)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	return buf, nil
}

// Decode validates the envelope (magic, version, length, checksum) and
// reconstructs the model. The returned header is valid whenever the
// fields it covers decoded, even on error, so callers can log what they
// rejected.
func Decode(data []byte) (ml.Regressor, Header, error) {
	var h Header
	if len(data) < headerSize+trailerSize {
		return nil, h, fmt.Errorf("%w: %d bytes is shorter than the envelope", ErrTruncated, len(data))
	}
	if string(data[:4]) != magic {
		return nil, h, ErrBadMagic
	}
	h.Version = binary.LittleEndian.Uint16(data[4:6])
	if h.Version != FormatVersion {
		// Layout beyond the version field is unknowable for other
		// revisions, so skew is checked before the checksum.
		return nil, h, fmt.Errorf("%w: file has v%d, this binary reads v%d", ErrVersionSkew, h.Version, FormatVersion)
	}
	h.Kind = Kind(data[6])
	h.Fingerprint = binary.LittleEndian.Uint64(data[8:16])
	plen := int(binary.LittleEndian.Uint32(data[16:20]))
	switch {
	case len(data) < headerSize+plen+trailerSize:
		return nil, h, fmt.Errorf("%w: payload claims %d bytes, file holds %d", ErrTruncated, plen, len(data)-headerSize-trailerSize)
	case len(data) > headerSize+plen+trailerSize:
		return nil, h, fmt.Errorf("%w: %d trailing bytes after the checksum", ErrCorrupt, len(data)-headerSize-plen-trailerSize)
	}
	body := data[:headerSize+plen]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(data[len(data)-trailerSize:]); got != want {
		return nil, h, fmt.Errorf("%w: checksum %08x, expected %08x", ErrCorrupt, got, want)
	}
	dec := ml.NewWireDec(body[headerSize:])
	var reg ml.Regressor
	var err error
	switch h.Kind {
	case KindForest:
		reg, err = forest.DecodeWire(dec)
	case KindXGB:
		reg, err = xgb.DecodeWire(dec)
	case KindKNN:
		reg, err = knn.DecodeWire(dec)
	default:
		return nil, h, fmt.Errorf("%w: kind byte %d", ErrUnknownKind, data[6])
	}
	if err != nil {
		// The checksum passed, so this is an encoder/decoder mismatch
		// rather than bit rot — still untrustworthy.
		return nil, h, fmt.Errorf("%w: payload: %w", ErrCorrupt, err)
	}
	if n := dec.Remaining(); n != 0 {
		return nil, h, fmt.Errorf("%w: %d unread payload bytes", ErrCorrupt, n)
	}
	return reg, h, nil
}
