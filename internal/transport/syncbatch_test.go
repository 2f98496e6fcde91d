package transport

import (
	"testing"

	"github.com/treedoc/treedoc/internal/vclock"
)

func TestSyncBatchRejects(t *testing.T) {
	if _, err := EncodeSyncBatch(nil, false); err == nil {
		t.Fatal("empty batch accepted on encode")
	}
	big := make([]SyncBatchEntry, maxSyncBatch+1)
	for i := range big {
		big[i] = SyncBatchEntry{Doc: "d", From: 1, Clock: vclock.VC{1: 1}}
	}
	if _, err := EncodeSyncBatch(big, false); err == nil {
		t.Fatal("oversized batch accepted on encode")
	}
	if _, err := EncodeSyncBatch([]SyncBatchEntry{{Doc: "", From: 1, Clock: vclock.VC{1: 1}}}, false); err == nil {
		t.Fatal("empty doc id accepted on encode")
	}

	good, err := EncodeSyncBatch(testBatchEntries(), false)
	if err != nil {
		t.Fatal(err)
	}
	// Trailing garbage must be refused: the flags byte is the only legal
	// trailer and only the forwarded bit may be set.
	if _, err := DecodeFrame(append(append([]byte{}, good...), 0x00)); err == nil {
		t.Fatal("zero flags byte accepted (canonical encoding omits it)")
	}
	if _, err := DecodeFrame(append(append([]byte{}, good...), 0x02)); err == nil {
		t.Fatal("unknown flag bit accepted")
	}
	fwd, err := EncodeSyncBatch(testBatchEntries(), true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeFrame(append(append([]byte{}, fwd...), 0x01)); err == nil {
		t.Fatal("bytes after the flags byte accepted")
	}
	// A count claiming more entries than the body can hold is refused.
	if _, err := DecodeFrame([]byte{kindSyncBatch, 0xFF, 0x01}); err == nil {
		t.Fatal("count exceeding body length accepted")
	}
	if _, err := DecodeFrame([]byte{kindSyncBatch, 0x00}); err == nil {
		t.Fatal("zero-entry batch accepted on decode")
	}
}
