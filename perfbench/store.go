package main

import (
	"encoding/binary"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/elasticflow/elasticflow/internal/store"
)

// WAL segment layout (internal/store): a 16-byte file header, then frames
// of a 4-byte big-endian payload length, a 4-byte CRC and the payload.
const (
	walHeaderLen  = 16
	walFrameHead  = 8
	probeAppends  = 400
	probeDuration = time.Second
)

// walSampleEvery is how often walSampler scans the journal segments.
const walSampleEvery = 250 * time.Millisecond

// walSampler scans the WAL segments under dir every walSampleEvery until
// its stop function is called; stop returns the mean framed size of the
// journal records over every scan. It reads the files only, while the
// program keeps them open. A store keeps only the records since its last
// snapshot, so a single scan at the end of a run sees a few hundred
// records of whatever kinds came last (efserver's mean moved from 59 to
// 115 bytes between two runs); scans through the run see them all.
//
// With on false it scans nothing and stop returns 0: only the traced run
// reports record sizes, so the untraced one does not pay for the reads.
func walSampler(dir string, on bool) (stop func() (float64, error)) {
	if !on {
		return func() (float64, error) { return 0, nil }
	}
	var frames, total int
	stopSampling := sampleEvery(walSampleEvery, func() error {
		n, b, err := walFrames(dir)
		frames, total = frames+n, total+b
		return err
	})
	return func() (float64, error) {
		if err := stopSampling(); err != nil || frames == 0 {
			return 0, err
		}
		return float64(total) / float64(frames), nil
	}
}

// walFrames counts the complete journal records in the WAL segments under
// dir and their framed bytes. A segment that a snapshot removes while it
// is being read is skipped.
func walFrames(dir string) (frames, total int, err error) {
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".wal") {
			return err
		}
		data, err := os.ReadFile(path)
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		if err != nil {
			return err
		}
		for off := walHeaderLen; off+walFrameHead <= len(data); {
			n := int(binary.BigEndian.Uint32(data[off:]))
			if n == 0 || off+walFrameHead+n > len(data) {
				break // a frame still being written
			}
			frames++
			total += walFrameHead + n
			off += walFrameHead + n
		}
		return nil
	})
	return frames, total, err
}

// probeAppend times store.Append(durable) alone, on a fresh store in the
// run's directory (the filesystem the workload's journals use), with
// records of about recBytes framed bytes.
func probeAppend(e *env, rep *report, recBytes float64) error {
	dir := filepath.Join(e.dir, "append-probe")
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	// The frame around the payload string adds about 60 bytes: header,
	// version byte and the record's JSON fields.
	payload := strings.Repeat("x", max(int(recBytes)-60, 1))
	var lat []float64
	deadline := time.Now().Add(probeDuration)
	for i := 0; i < probeAppends && time.Now().Before(deadline); i++ {
		id := e.rec.begin("store", "store.Append", 0)
		start := time.Now()
		_, err := st.Append("probe", float64(i), payload, true)
		lat = append(lat, float64(time.Since(start))/float64(time.Microsecond))
		e.rec.end(id)
		if err != nil {
			return errors.Join(err, st.Close())
		}
	}
	if err := st.Close(); err != nil {
		return err
	}
	rep.set("store.append_durable_p50_us", percentile(lat, 0.50))
	rep.set("store.append_durable_p99_us", percentile(lat, 0.99))
	return os.RemoveAll(dir)
}
