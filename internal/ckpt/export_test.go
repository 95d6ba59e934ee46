package ckpt

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/models"
	"repro/internal/seal"
)

// ImageV2 is everything version 2 changes in a valid version-1 checkpoint
// image: the version digit of both magics, and both trailers (the embedded
// snapshot's, then the checkpoint's) resealed with seal.Sum64 over every
// byte before them.
func ImageV2(t testing.TB, v1 []byte) []byte {
	t.Helper()
	img := bytes.Clone(v1)
	const at = len(magic) + 16 // the snapshot follows the magic, step and epoch
	_, n, err := models.DecodeSnapshot(img[at:])
	if err != nil {
		t.Fatalf("ImageV2 of an image whose snapshot does not decode: %v", err)
	}
	for _, part := range [][]byte{img[at : at+n], img} {
		part[len(magic)-1] = '2'
		k := len(part) - 8
		binary.LittleEndian.PutUint64(part[k:], seal.Sum64(part[:k]))
	}
	return img
}
