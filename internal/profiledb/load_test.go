package profiledb

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"greenhetero/internal/fit"
)

// trainedDB builds a database with two real entries.
func trainedDB(t *testing.T) *DB {
	t.Helper()
	db := New()
	samples := []fit.Sample{{X: 100, Y: 10}, {X: 150, Y: 22}, {X: 200, Y: 30}, {X: 250, Y: 34}}
	if err := db.AddTrainingRun(Key{ServerID: "xeon", WorkloadID: "jbb"}, 80, 260, samples); err != nil {
		t.Fatal(err)
	}
	if err := db.AddTrainingRun(Key{ServerID: "i5", WorkloadID: "jbb"}, 40, 120, []fit.Sample{
		{X: 50, Y: 8}, {X: 80, Y: 14}, {X: 110, Y: 18},
	}); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestLoadRejections drives RestoreFrom with hand-built snapshots
// covering every class the validator must refuse.
func TestLoadRejections(t *testing.T) {
	// A minimal well-formed entry to mutate from.
	valid := `{"key":{"serverId":"a","workloadId":"w"},"idleW":50,"peakEffW":200,` +
		`"samples":[{"x":100,"y":10}],"curve":{"coeffs":[1,2,3]},"refits":0}`

	cases := []struct {
		name string
		json string
	}{
		{"zero maxSamples", `{"maxSamples":0,"entries":[]}`},
		{"negative maxSamples", `{"maxSamples":-3,"entries":[]}`},
		{"empty server id", `{"maxSamples":64,"entries":[` +
			`{"key":{"serverId":"","workloadId":"w"},"idleW":50,"peakEffW":200}]}`},
		{"empty workload id", `{"maxSamples":64,"entries":[` +
			`{"key":{"serverId":"a","workloadId":""},"idleW":50,"peakEffW":200}]}`},
		{"duplicate keys", `{"maxSamples":64,"entries":[` + valid + `,` + valid + `]}`},
		{"nan idleW", `{"maxSamples":64,"entries":[` +
			`{"key":{"serverId":"a","workloadId":"w"},"idleW":"NaN","peakEffW":200}]}`},
		{"inf peakEffW", `{"maxSamples":64,"entries":[` +
			`{"key":{"serverId":"a","workloadId":"w"},"idleW":50,"peakEffW":1e999}]}`},
		{"zero idleW", `{"maxSamples":64,"entries":[` +
			`{"key":{"serverId":"a","workloadId":"w"},"idleW":0,"peakEffW":200}]}`},
		{"peak below idle", `{"maxSamples":64,"entries":[` +
			`{"key":{"serverId":"a","workloadId":"w"},"idleW":200,"peakEffW":100}]}`},
		{"negative refits", `{"maxSamples":64,"entries":[` +
			`{"key":{"serverId":"a","workloadId":"w"},"idleW":50,"peakEffW":200,"refits":-1}]}`},
		{"non-finite sample", `{"maxSamples":64,"entries":[` +
			`{"key":{"serverId":"a","workloadId":"w"},"idleW":50,"peakEffW":200,` +
			`"samples":[{"x":1e999,"y":1}]}]}`},
		{"non-finite curve coefficient", `{"maxSamples":64,"entries":[` +
			`{"key":{"serverId":"a","workloadId":"w"},"idleW":50,"peakEffW":200,` +
			`"curve":{"coeffs":[1,1e999]}}]}`},
		{"trailing garbage type", `{"maxSamples":"many","entries":[]}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := New().RestoreFrom(strings.NewReader(tc.json)); err == nil {
				t.Errorf("RestoreFrom accepted %s", tc.json)
			}
		})
	}
}

func TestLoadRejectionsAreErrBadEntry(t *testing.T) {
	// Structural (JSON) failures wrap differently, but every semantic
	// rejection is ErrBadEntry so callers can distinguish corrupt files
	// from unreadable ones.
	err := New().RestoreFrom(strings.NewReader(`{"maxSamples":0,"entries":[]}`))
	if !errors.Is(err, ErrBadEntry) {
		t.Errorf("semantic rejection err = %v, want ErrBadEntry", err)
	}
}

// TestSaveLoadByteIdentical: Save output is accepted by RestoreFrom and
// reproduces the database byte-for-byte on a second Save.
func TestSaveLoadByteIdentical(t *testing.T) {
	db := trainedDB(t)
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded := New()
	if err := loaded.RestoreFrom(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := loaded.Save(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Error("save → load → save is not byte-identical")
	}
}

// TestRestoreFrom: in-place restore replaces the entries, rejects
// mismatched maxSamples, and leaves the DB untouched on bad input.
func TestRestoreFrom(t *testing.T) {
	src := trainedDB(t)
	var snap bytes.Buffer
	if err := src.Save(&snap); err != nil {
		t.Fatal(err)
	}

	dst := New()
	if err := dst.RestoreFrom(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatal(err)
	}
	if dst.Len() != src.Len() {
		t.Errorf("restored %d entries, want %d", dst.Len(), src.Len())
	}
	var out bytes.Buffer
	if err := dst.Save(&out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap.Bytes(), out.Bytes()) {
		t.Error("RestoreFrom did not reproduce the snapshot byte-for-byte")
	}

	// maxSamples is part of the snapshot's fingerprint: a window other
	// than this build's is refused.
	otherWindow := bytes.Replace(snap.Bytes(), []byte(`"maxSamples": 64`), []byte(`"maxSamples": 8`), 1)
	if bytes.Equal(otherWindow, snap.Bytes()) {
		t.Fatal("test premise broken: snapshot has no maxSamples 64 field")
	}
	other := New()
	if err := other.RestoreFrom(bytes.NewReader(otherWindow)); !errors.Is(err, ErrBadEntry) {
		t.Errorf("mismatched maxSamples err = %v, want ErrBadEntry", err)
	}
	if other.Len() != 0 {
		t.Error("failed RestoreFrom mutated the database")
	}

	// Invalid snapshot leaves existing entries in place.
	before := dst.Len()
	if err := dst.RestoreFrom(strings.NewReader(`{"maxSamples":0}`)); err == nil {
		t.Error("invalid snapshot accepted")
	}
	if dst.Len() != before {
		t.Error("failed RestoreFrom mutated the database")
	}
}

// TestLoadSnapshotWithR2: snapshots written while fits carried an "R2"
// field (daemon state dirs, journal frames) still recover through
// RestoreFrom; the field is ignored and not written back.
func TestLoadSnapshotWithR2(t *testing.T) {
	const snap = `{"maxSamples":64,"entries":[{"key":{"serverId":"a","workloadId":"w"},` +
		`"idleW":50,"peakEffW":200,"samples":[{"X":100,"Y":10},{"X":150,"Y":22}],` +
		`"curve":{"Coeffs":[1,2],"R2":0.93,"N":2},"refits":3}]}`
	db := New()
	if err := db.RestoreFrom(strings.NewReader(snap)); err != nil {
		t.Fatalf("RestoreFrom: %v", err)
	}
	e, err := db.Lookup(Key{ServerID: "a", WorkloadID: "w"})
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Curve.Coeffs) != 2 || e.Curve.Coeffs[1] != 2 || e.Curve.N != 2 || e.Refits != 3 {
		t.Errorf("entry %+v", e)
	}
	var out bytes.Buffer
	if err := db.Save(&out); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), `"R2"`) {
		t.Error("re-saved snapshot still carries R2")
	}
}
