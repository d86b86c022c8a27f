package main

import (
	"os"
	"testing"
)

func TestParseStatCPUSkipsCommandName(t *testing.T) {
	// The command name may itself hold spaces and ')'.
	line := []byte("4242 (fw serve) x) S 1 4242 4242 0 -1 4194560 1234 0 0 0 731 208 0 0 20 0 9 0 5555 123456789 2345 18446744073709551615\n")
	u, s, err := parseStatCPU(line)
	if err != nil || u != 731 || s != 208 {
		t.Fatalf("parseStatCPU = %d, %d, %v; want 731, 208", u, s, err)
	}
	if _, _, err := parseStatCPU([]byte("4242 (short) S 1 2")); err == nil {
		t.Error("truncated stat line parsed")
	}
}

func TestParseStatusKB(t *testing.T) {
	status := []byte("Name:\tfwserve\nVmPeak:\t  812340 kB\nVmHWM:\t   27412 kB\nVmRSS:\t   26000 kB\n")
	got, err := parseStatusKB(status, "VmHWM:")
	if err != nil || got != 27412<<10 {
		t.Fatalf("VmHWM = %d, %v; want %d", got, err, 27412<<10)
	}
	if _, err := parseStatusKB(status, "VmSwap:"); err == nil {
		t.Error("missing field parsed")
	}
}

func TestParseProcStatAndSteal(t *testing.T) {
	a, err := parseProcStat([]byte("cpu  100 5 50 800 10 1 2 32 7 0\ncpu0 50 2 25 400 5 0 1 16 0 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	// Guest time (field 9) is already inside user and is not added.
	if a.total != 1000 || a.steal != 32 {
		t.Fatalf("parsed %+v, want total 1000 steal 32", a)
	}
	b := hostCPU{total: 1200, steal: 82}
	if got := stealFrac(a, b); got != 0.25 {
		t.Errorf("steal fraction = %v, want 0.25", got)
	}
	if _, err := parseProcStat([]byte("intr 1 2 3\n")); err == nil {
		t.Error("non-cpu first line parsed")
	}
}

func TestProcReadersOnSelf(t *testing.T) {
	if _, err := os.Stat("/proc/self/stat"); err != nil {
		t.Skip("no /proc")
	}
	pid := os.Getpid()
	if _, err := procCPU(pid); err != nil {
		t.Error(err)
	}
	if hwm, err := procHWM(pid); err != nil || hwm <= 0 {
		t.Errorf("VmHWM = %d, %v", hwm, err)
	}
	if _, err := readHostCPU(); err != nil {
		t.Error(err)
	}
}

func TestQuietestKeepsLeastStolenPartsInOrder(t *testing.T) {
	var parts []*loopStats
	for i, p := range []struct{ steal, cpu int64 }{{0, 100}, {5, 100}, {0, 300}, {1, 100}, {0, 110}, {9, 100}} {
		parts = append(parts, &loopStats{firstK: int64(i), events: 10, self0: 1000, self1: 1000 + p.cpu,
			host0: hostCPU{total: 0}, host1: hostCPU{total: 100, steal: p.steal}})
	}
	got := quietest(parts, 4)
	want := []int64{0, 2, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("kept %d parts, want %d", len(got), len(want))
	}
	for i, pt := range got {
		if pt.firstK != want[i] {
			t.Errorf("kept part %d is part %d, want %d", i, pt.firstK, want[i])
		}
	}
	if n := len(quietest(parts[:2], 4)); n != 2 {
		t.Errorf("kept %d of 2 parts", n)
	}
}

func TestHostAdjust(t *testing.T) {
	st := &loopStats{events: 1000, self0: 0, self1: 60000}
	if f := st.hostAdjust(&spec{refClientNs: 30}); f != 0.5 {
		t.Errorf("hostAdjust = %g, want 0.5 for a host twice as slow as the reference", f)
	}
}
