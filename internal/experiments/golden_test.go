package experiments

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"hta/internal/chaos"
	"hta/internal/metrics"
	"hta/internal/wq"
)

// goldenCounters is the slice of a RunResult the golden file pins
// beside each run's CSV digest.
type goldenCounters struct {
	Completed      int
	Submitted      int
	Requeues       int
	Failures       wq.FailureStats
	Chaos          chaos.Stats
	Recovery       metrics.RecoveryCounters
	Overload       metrics.OverloadCounters
	Shed           int
	SojournP50     time.Duration
	SojournP99     time.Duration
	ScalingActions int
	Panics         int
	InitSamples    []time.Duration
}

// goldenRun renders one run as its CSV's SHA-256 plus its counters.
func goldenRun(t *testing.T, run *RunResult) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.csv")
	if err := WriteRunCSV(path, run); err != nil {
		t.Fatal(err)
	}
	csv, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	c := goldenCounters{
		Completed: run.Completed, Submitted: run.Submitted, Requeues: run.Requeues,
		Failures: run.Failures, Chaos: run.Chaos, Recovery: run.Recovery,
		Overload: run.Overload, Shed: run.Shed,
		SojournP50: run.SojournP50, SojournP99: run.SojournP99,
		ScalingActions: run.ScalingActions, Panics: run.Panics, InitSamples: run.InitSamples,
	}
	return fmt.Sprintf("run %s csv-sha256=%x\n%+v\n", run.Name, sha256.Sum256(csv), c)
}

// goldenReport renders a report's String() and every run, in sorted
// name order.
func goldenReport(t *testing.T, b *strings.Builder, name string, rep fmt.Stringer, runs map[string]*RunResult) {
	t.Helper()
	fmt.Fprintf(b, "==== %s ====\n%s\n", name, rep)
	names := make([]string, 0, len(runs))
	for n := range runs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		b.WriteString(goldenRun(t, runs[n]))
	}
}

// goldenText runs the pinned reports and the workflow-stream driver.
func goldenText(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	check := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	fig2, err := Fig2(1)
	check(err)
	goldenReport(t, &b, "Fig2(1)", fig2, fig2.Runs)
	fig4, err := Fig4(1)
	check(err)
	goldenReport(t, &b, "Fig4(1)", fig4, fig4.Runs)
	fig10, err := Fig10(1)
	check(err)
	goldenReport(t, &b, "Fig10(1)", fig10, fig10.Runs)
	fig11, err := Fig11(1)
	check(err)
	goldenReport(t, &b, "Fig11(1)", fig11, fig11.Runs)
	stream, err := Stream(1)
	check(err)
	goldenReport(t, &b, "Stream(1)", stream, stream.Runs)
	ei, err := StreamEIWith(SmokeStreamEIConfig(5))
	check(err)
	goldenReport(t, &b, "StreamEIWith(SmokeStreamEIConfig(5))", ei, ei.Runs)
	ef, err := ChaosEFWith(smallChaosCfg(1))
	check(err)
	goldenReport(t, &b, "ChaosEFWith(smallChaosCfg(1))", ef, ef.Runs)
	a4, err := AblationQueueScaler(1)
	check(err)
	goldenReport(t, &b, "AblationQueueScaler(1)", a4, a4.Runs)
	stab, err := AblationHPAStabilization(1)
	check(err)
	goldenReport(t, &b, "AblationHPAStabilization(1)", stab, stab.Runs)
	eh, err := IOScaleEHWith(ioScaleSmall())
	check(err)
	goldenReport(t, &b, "IOScaleEHWith(ioScaleSmall())", eh, eh.Runs)

	wf, err := RunHTAWorkflowStream("wf-stream", workflowStreamTrace().Workflows(), workflowStreamOptions())
	check(err)
	fmt.Fprintf(&b, "==== RunHTAWorkflowStream ====\n%s", goldenRun(t, wf))
	return b.String()
}

// TestGoldenReports pins the rendered reports and every run's series
// and counters against testdata/golden.txt, so a refactor of the
// harness must reproduce the previous code's output byte for byte.
// The test never rewrites the file; on a mismatch it saves the new
// output to a temporary file and names it.
func TestGoldenReports(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "golden.txt"))
	if err != nil {
		t.Fatal(err)
	}
	got := goldenText(t)
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	line := 0
	for line < len(gl) && line < len(wl) && gl[line] == wl[line] {
		line++
	}
	msg := fmt.Sprintf("output diverges from testdata/golden.txt at line %d", line+1)
	if line < len(gl) && line < len(wl) {
		msg += fmt.Sprintf(":\n got: %s\nwant: %s", gl[line], wl[line])
	}
	if f, err := os.CreateTemp("", "golden-*.txt"); err == nil {
		f.WriteString(got)
		f.Close()
		msg += "\nfull output saved to " + f.Name()
	}
	t.Fatal(msg)
}
