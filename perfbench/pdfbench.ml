(* pdfbench: run one workload of the end-to-end benchmark.

     pdfbench --workload NAME --seed N --seconds S --trace 0|1
              [--pdfatpg PATH] [--run-dir DIR]

   Human-readable figures go to stderr; the last stdout line is one JSON
   object {"correct", "attempted", "failed", "metrics"} carrying every
   end-to-end metric (--trace 0) or every per-layer metric (--trace 1)
   with its unit.  Exits 1 when a correctness check failed, 2 when the
   run could not complete.  Workloads and metrics: METRICS.md. *)

module J = Pdf_obs.Json_text
module Justify = Pdf_core.Justify

let workload = ref ""
let seed = ref 1
let seconds = ref 10
let trace = ref 0
let pdfatpg = ref "_build/default/bin/pdfatpg.exe"
let run_dir = ref ".perfbench"

let specs =
  [
    ( "--workload",
      Arg.Set_string workload,
      "NAME one of " ^ String.concat ", " Perfbench.Spec.workloads );
    ("--seed", Arg.Set_int seed, "N seed every generated input derives from");
    ("--seconds", Arg.Set_int seconds, "S length of the timed phase");
    ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or the traced per-layer run (1)");
    ("--pdfatpg", Arg.Set_string pdfatpg, "PATH pdfatpg executable for the serve workload");
    ("--run-dir", Arg.Set_string run_dir, "DIR scratch directory for sockets and traces");
  ]

let enrich ~circuit ~justify ~jobs =
  { Perfbench.Batch.circuit; n_p = 2000; n_p0 = 200; justify; jobs; setups = 5 }

let run name =
  let heavy = max 3 !seconds and passes = max 1 (!seconds / 2) in
  let seconds = float !seconds and traced = !trace = 1 in
  let trace_out = Filename.concat !run_dir (name ^ ".trace.json") in
  match name with
  | "enrich-s1423s" ->
    Perfbench.Batch.run_enrich
      (enrich ~circuit:"s1423*" ~justify:Justify.Sim ~jobs:1)
      ~seconds ~trace:traced ~trace_out
  | "enrich-portfolio-b09" ->
    Perfbench.Batch.run_enrich
      (enrich ~circuit:"b09" ~justify:Justify.Portfolio ~jobs:2)
      ~seconds ~trace:traced ~trace_out
  | "grade-s9234s" ->
    Perfbench.Batch.run_grade
      {
        Perfbench.Batch.g_circuit = "s9234*";
        g_n_p = Pdf_faults.Target_sets.paper_n_p;
        g_n_p0 = Pdf_faults.Target_sets.paper_n_p0;
        batch_tests = 16 * Pdf_values.Word.lanes;
        batches = 48;
        passes;
        g_setups = 1;
      }
      ~seed:!seed ~trace:traced ~trace_out
  | "serve-mixed-b09" ->
    Perfbench.Serve_load.run
      {
        Perfbench.Serve_load.circuit = "b09";
        light_rate = 200.;
        unloaded_s = 2.;
        heavy;
        fault_ids = 200;
      }
      ~pdfatpg:!pdfatpg ~run_dir:!run_dir ~seed:!seed ~trace:traced
  | _ -> raise (Arg.Bad ("unknown workload " ^ name))

let result_line (o : Perfbench.Spec.outcome) metrics =
  let metric (name, v) =
    Printf.sprintf "%s:{\"value\":%s,\"unit\":%s}" (J.quote name) (J.float v)
      (J.quote (Perfbench.Spec.unit_of name))
  in
  Printf.sprintf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}"
    (o.failed = 0) o.attempted o.failed
    (String.concat "," (List.map metric metrics))

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let usage = "pdfbench --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if not (List.mem !workload Perfbench.Spec.workloads) || !seconds < 1
     || (!trace <> 0 && !trace <> 1)
  then begin
    Arg.usage specs usage;
    exit 2
  end;
  if not (Sys.file_exists !run_dir) then Sys.mkdir !run_dir 0o755;
  match run !workload with
  | exception e ->
    Printf.eprintf "pdfbench: %s failed: %s\n%!" !workload (Printexc.to_string e);
    exit 2
  | o ->
    let expected, metrics =
      if !trace = 1 then (Perfbench.Spec.per_layer, o.layers)
      else (Perfbench.Spec.end_to_end, o.e2e)
    in
    if List.map fst metrics <> List.map fst expected then begin
      Printf.eprintf "pdfbench: %s reported the wrong metric set\n%!" !workload;
      exit 2
    end;
    List.iter
      (fun (n, v) ->
        Printf.eprintf "  %-40s %14.6f %s\n" n v (Perfbench.Spec.unit_of n))
      metrics;
    print_endline (result_line o metrics);
    exit (if o.failed = 0 then 0 else 1)
