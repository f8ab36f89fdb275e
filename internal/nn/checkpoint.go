package nn

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// Checkpoint container: named parameter tensors in a fixed little-endian
// layout with a trailing CRC32, mirroring the dataset container format.
const ckptMagic = "SALNTCK1"

// SaveParams writes the parameters (names, shapes, weights) to w. Optimizer
// state is not serialized; resuming restarts Adam's moments, which is the
// common practice for inference/fine-tuning checkpoints.
func SaveParams(w io.Writer, params []*Param) error {
	crc := crc32.NewIEEE()
	mw := io.MultiWriter(w, crc)
	if _, err := io.WriteString(mw, ckptMagic); err != nil {
		return err
	}
	if err := binary.Write(mw, binary.LittleEndian, int32(len(params))); err != nil {
		return err
	}
	for _, p := range params {
		if err := binary.Write(mw, binary.LittleEndian, int32(len(p.Name))); err != nil {
			return err
		}
		if _, err := io.WriteString(mw, p.Name); err != nil {
			return err
		}
		if err := binary.Write(mw, binary.LittleEndian, [2]int32{int32(p.W.Rows), int32(p.W.Cols)}); err != nil {
			return err
		}
		if err := binary.Write(mw, binary.LittleEndian, p.W.Data); err != nil {
			return err
		}
	}
	return binary.Write(w, binary.LittleEndian, crc.Sum32())
}

// LoadParams reads a checkpoint written by SaveParams into params. The
// parameter list must match the checkpoint exactly (same order, names and
// shapes) — the standard strict state-dict contract.
func LoadParams(r io.Reader, params []*Param) error {
	raw, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("nn: read checkpoint: %w", err)
	}
	if len(raw) < len(ckptMagic)+4 {
		return fmt.Errorf("nn: truncated checkpoint (%d bytes)", len(raw))
	}
	payload, tail := raw[:len(raw)-4], raw[len(raw)-4:]
	if stored := binary.LittleEndian.Uint32(tail); stored != crc32.ChecksumIEEE(payload) {
		return fmt.Errorf("nn: checkpoint checksum mismatch")
	}
	br := bytes.NewReader(payload)
	magic := make([]byte, len(ckptMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return err
	}
	if string(magic) != ckptMagic {
		return fmt.Errorf("nn: bad checkpoint magic %q", magic)
	}
	var count int32
	if err := binary.Read(br, binary.LittleEndian, &count); err != nil {
		return err
	}
	if int(count) != len(params) {
		return fmt.Errorf("nn: checkpoint has %d params, model has %d", count, len(params))
	}
	for _, p := range params {
		var nameLen int32
		if err := binary.Read(br, binary.LittleEndian, &nameLen); err != nil {
			return err
		}
		if nameLen < 0 || nameLen > 1<<10 {
			return fmt.Errorf("nn: unreasonable name length %d", nameLen)
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(br, name); err != nil {
			return err
		}
		if string(name) != p.Name {
			return fmt.Errorf("nn: checkpoint param %q does not match model param %q", name, p.Name)
		}
		var rows, cols int32
		if err := binary.Read(br, binary.LittleEndian, &rows); err != nil {
			return err
		}
		if err := binary.Read(br, binary.LittleEndian, &cols); err != nil {
			return err
		}
		if int(rows) != p.W.Rows || int(cols) != p.W.Cols {
			return fmt.Errorf("nn: param %q shape %dx%d does not match model %dx%d",
				p.Name, rows, cols, p.W.Rows, p.W.Cols)
		}
		if err := binary.Read(br, binary.LittleEndian, p.W.Data); err != nil {
			return err
		}
	}
	if br.Len() != 0 {
		return fmt.Errorf("nn: %d trailing bytes in checkpoint", br.Len())
	}
	return nil
}
