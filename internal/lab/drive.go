package lab

import (
	"fmt"
	"io"
	"os"
)

// DriveConfig configures Drive, the command-line front end of the engine
// (`fdlab matrix`).
type DriveConfig struct {
	// Workers is the pool size; <= 0 means GOMAXPROCS.
	Workers int
	// JSONPath, when non-empty, receives the aggregate report as JSON.
	JSONPath string
	// Fingerprint prints the deterministic result hash after the tables.
	Fingerprint bool
}

// Drive runs the scenarios and renders the standard CLI output: one aligned
// table per family, a totals line, and optionally the fingerprint and a
// JSON report file. It returns an error if any run failed or the report
// could not be written.
func Drive(w io.Writer, scs []Scenario, cfg DriveConfig) error {
	rep := Run(scs, Options{Workers: cfg.Workers})
	for _, fam := range Families(scs) {
		fmt.Fprintf(w, "## family %s\n\n", fam)
		RenderFamily(w, rep.Family(fam))
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%d scenarios, %d runs (%d failed), %d workers, %dms\n",
		len(rep.Scenarios), rep.Runs, rep.Failed, rep.Workers, rep.ElapsedMS)
	if cfg.Fingerprint {
		fmt.Fprintf(w, "fingerprint: %s\n", rep.Fingerprint())
	}
	if cfg.JSONPath != "" {
		f, err := os.Create(cfg.JSONPath)
		if err != nil {
			return err
		}
		err = rep.WriteJSON(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "report written to %s\n", cfg.JSONPath)
	}
	if rep.Failed > 0 {
		return fmt.Errorf("%d of %d runs failed", rep.Failed, rep.Runs)
	}
	return nil
}
