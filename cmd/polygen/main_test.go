package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

	"repro/internal/identity"
	"repro/internal/mediator"
	"repro/internal/paperdata"
	"repro/internal/pqp"
	"repro/internal/wire"
)

// TestMain runs main itself when the test binary is re-executed as the
// polygen command, so tests observe its real exit status.
func TestMain(m *testing.M) {
	if os.Getenv("POLYGEN_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// polygen runs the command with args and returns its stdout, stderr and
// exit code.
func polygen(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "POLYGEN_RUN_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	return stdout.String(), stderr.String(), cmd.ProcessState.ExitCode()
}

// TestConnectExitStatus: in -connect mode a one-shot -sql or -alg query
// exits 0 with its answer, and a query the mediator rejects exits non-zero
// with the mediator's error on stderr.
func TestConnectExitStatus(t *testing.T) {
	fed := paperdata.New()
	processor := pqp.New(fed.Schema, fed.Registry, identity.CaseFold{}, fed.LQPs())
	srv := wire.NewMediatorServer(mediator.New(processor, mediator.Config{Federation: "paper"}))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	out, _, code := polygen(t, "-connect", addr, "-alg", `(PALUMNUS [DEGREE = "MBA"]) [ANAME]`)
	if code != 0 || !strings.Contains(out, "tuples)") {
		t.Errorf("good -alg query: exit %d, stdout %q", code, out)
	}
	for _, args := range [][]string{
		{"-alg", `PNOSUCHSCHEME [X]`},
		{"-sql", `SELECT BOGUS FROM PORGANIZATION`},
	} {
		out, errOut, code := polygen(t, append([]string{"-connect", addr}, args...)...)
		if code == 0 || errOut == "" || strings.Contains(out, "tuples)") {
			t.Errorf("failing query %v: exit %d, stdout %q, stderr %q", args, code, out, errOut)
		}
	}
}

// TestRepeatedProjectionAttribute: a projection naming one attribute twice
// is refused with an error naming it, in SQL and in the algebra, and the
// command exits non-zero instead of panicking.
func TestRepeatedProjectionAttribute(t *testing.T) {
	for _, args := range [][]string{
		{"-sql", `SELECT ANAME, ANAME FROM PALUMNUS`},
		{"-alg", `PORGANIZATION [ONAME, ONAME]`},
	} {
		out, errOut, code := polygen(t, args...)
		if code == 0 || strings.Contains(errOut, "panic") || !strings.Contains(errOut, "twice") || out != "" {
			t.Errorf("%v: exit %d, stdout %q, stderr %q", args, code, out, errOut)
		}
	}
}
