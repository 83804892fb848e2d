package mom

import (
	"fmt"
	"io"

	"repro/internal/obs"
)

// PipelineOptions selects the window and output sinks of a pipeline-trace
// export. Start and Count window the dynamic instruction stream (Count 0
// records from Start to the end of the run); at least one of Konata and
// Chrome must be set.
type PipelineOptions struct {
	Start  uint64    // first dynamic instruction to record
	Count  uint64    // instructions to record (0 = to end of run)
	Konata io.Writer // Kanata log sink (Konata pipeline viewer), optional
	Chrome io.Writer // Chrome trace-event JSON sink (Perfetto), optional
}

// PipelineExport reports one pipeline-trace export: the timed run the trace
// was cut from and how many instructions the export window holds.
type PipelineExport struct {
	Result   Result
	Recorded int // instructions inside the export window
}

// exportPipeline runs one workload with a Recorder on the export window
// attached, then encodes the window into each requested sink.
func exportPipeline(app bool, name string, i ISA, width int, m MemModel, sc Scale, opt PipelineOptions) (PipelineExport, error) {
	if opt.Konata == nil && opt.Chrome == nil {
		return PipelineExport{}, fmt.Errorf("mom: pipeline export needs at least one output (Konata or Chrome)")
	}
	key := traceKey{app: app, name: name, isa: i, scale: sc}
	p, err := key.program()
	if err != nil {
		return PipelineExport{}, err
	}
	disasm := make([]string, len(p.Insts))
	for pc, in := range p.Insts {
		disasm[pc] = in.String()
	}
	rec := &obs.Recorder{Start: opt.Start, Count: opt.Count}
	res, err := runWorkload(key, width, m, SampleSpec{}, rec)
	if err != nil {
		return PipelineExport{}, err
	}
	exp := PipelineExport{Result: res, Recorded: len(rec.Events)}
	if opt.Konata != nil {
		if err := obs.WriteKonata(opt.Konata, rec.Events, disasm); err != nil {
			return exp, fmt.Errorf("mom: konata export: %w", err)
		}
	}
	if opt.Chrome != nil {
		if err := obs.WriteChrome(opt.Chrome, rec.Events, disasm); err != nil {
			return exp, fmt.Errorf("mom: chrome trace export: %w", err)
		}
	}
	return exp, nil
}

// ExportKernelPipeline exports the pipeline lifetimes of a kernel run.
func ExportKernelPipeline(kernel string, i ISA, width int, m MemModel, sc Scale, opt PipelineOptions) (PipelineExport, error) {
	return exportPipeline(false, kernel, i, width, m, sc, opt)
}

// ExportAppPipeline exports the pipeline lifetimes of an application run.
func ExportAppPipeline(app string, i ISA, width int, m MemModel, sc Scale, opt PipelineOptions) (PipelineExport, error) {
	return exportPipeline(true, app, i, width, m, sc, opt)
}
