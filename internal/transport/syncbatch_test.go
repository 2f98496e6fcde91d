package transport

import (
	"testing"

	"github.com/treedoc/treedoc/internal/vclock"
)

func TestSyncBatchRejects(t *testing.T) {
	if _, err := EncodeSyncBatch(nil); err == nil {
		t.Fatal("empty batch accepted on encode")
	}
	big := make([]SyncBatchEntry, maxSyncBatch+1)
	for i := range big {
		big[i] = SyncBatchEntry{Doc: "d", From: 1, Clock: vclock.VC{1: 1}}
	}
	if _, err := EncodeSyncBatch(big); err == nil {
		t.Fatal("oversized batch accepted on encode")
	}
	if _, err := EncodeSyncBatch([]SyncBatchEntry{{Doc: "", From: 1, Clock: vclock.VC{1: 1}}}); err == nil {
		t.Fatal("empty doc id accepted on encode")
	}

	good, err := EncodeSyncBatch(testBatchEntries())
	if err != nil {
		t.Fatal(err)
	}
	// The batch ends with its last entry: any trailing byte is refused,
	// including the 0x01 that once flagged a batch forwarded over the mesh.
	for extra := 0; extra < 256; extra++ {
		if _, err := DecodeFrame(append(append([]byte{}, good...), byte(extra))); err == nil {
			t.Fatalf("trailing byte %#x accepted", extra)
		}
	}
	// A count claiming more entries than the body can hold is refused.
	if _, err := DecodeFrame([]byte{kindSyncBatch, 0xFF, 0x01}); err == nil {
		t.Fatal("count exceeding body length accepted")
	}
	if _, err := DecodeFrame([]byte{kindSyncBatch, 0x00}); err == nil {
		t.Fatal("zero-entry batch accepted on decode")
	}
}
