(* The workloads, in run order: name -> (measured run, traced run). *)
let all =
  [
    ("extract-suite", (W_extract.run, W_extract.traced));
    ("analyze-wide", (W_analyze.run, W_analyze.traced));
    ("serve-mixed", (W_serve.run, W_serve.traced));
    ("spm-explore", (W_spm.run, W_spm.traced));
  ]
