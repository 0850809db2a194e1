(* The in-process batch workloads: enrichment runs and LBIST-style
   grading of seeded pseudo-random tests.  Every layer is reached
   through its public entry point, each wrapped in a benchmark span
   ([bench.*]) so a traced run can attribute time without any span
   added to the program. *)

module Circuit = Pdf_circuit.Circuit
module Delay_model = Pdf_paths.Delay_model
module Target_sets = Pdf_faults.Target_sets
module Fault_sim = Pdf_core.Fault_sim
module Atpg = Pdf_core.Atpg
module Justify = Pdf_core.Justify
module Test_pair = Pdf_core.Test_pair
module Profiles = Pdf_synth.Profiles
module Rng = Pdf_util.Rng
module Span = Pdf_obs.Span
module Trace = Pdf_obs.Trace
module Metrics = Pdf_obs.Metrics
module Ledger = Pdf_obs.Ledger
module Pool = Pdf_par.Pool

(* The enrichment seed is the CLI default, whatever the run's --seed:
   the enrich workloads' results and work counters are then identical
   in every run and equal to `pdfatpg enrich CIRCUIT`'s line. *)
let enrich_seed = Pdf_experiments.Workload.default_seed

type enrich_cfg = {
  circuit : string;
  n_p : int;
  n_p0 : int;
  justify : Justify.kind;
  jobs : int;  (** default-pool domains *)
  setups : int;  (** set-ups per run; [setup_s] is their median *)
}

type grade_cfg = {
  g_circuit : string;
  g_n_p : int;
  g_n_p0 : int;
  batch_tests : int;  (** tests per detected_by_tests call, a multiple of 63 *)
  batches : int;  (** batches per grading pass *)
  passes : int;
  g_setups : int;
}

type setup = {
  c : Circuit.t;
  faults : Fault_sim.prepared array;
  p0 : int list;
  p1 : int list;
}

let profile name =
  match Profiles.find name with
  | Some p -> p
  | None -> invalid_arg ("perfbench: unknown circuit profile " ^ name)

(* Set-up from the netlist: a physically fresh circuit (so the
   per-circuit condition cache starts cold, as in a new process), target
   sets, and prepared faults. *)
let setup ~circuit ~n_p ~n_p0 =
  let base = Profiles.circuit (profile circuit) in
  let c =
    Circuit.unsafe_make ~name:base.Circuit.name ~num_pis:base.Circuit.num_pis
      ~gates:base.Circuit.gates ~pos:base.Circuit.pos
      ~net_names:base.Circuit.net_names
  in
  let ts =
    Span.with_ "bench.target_sets" (fun () ->
        Target_sets.build c (Delay_model.lines c) ~n_p ~n_p0)
  in
  let faults =
    Span.with_ "bench.prepare" (fun () -> Fault_sim.prepare c ts.Target_sets.p)
  in
  let n0 = List.length ts.Target_sets.p0 in
  {
    c;
    faults;
    p0 = List.init n0 Fun.id;
    p1 = List.init (Array.length faults - n0) (fun i -> n0 + i);
  }

(* [n] timed set-ups; returns the last one and the median time. *)
let timed_setups n ~circuit ~n_p ~n_p0 =
  ignore (Profiles.circuit (profile circuit) : Circuit.t);
  let runs =
    List.init (max 1 n) (fun _ -> Spec.time (fun () -> setup ~circuit ~n_p ~n_p0))
  in
  let s, _ = List.nth runs (List.length runs - 1) in
  (s, Pct.median (Array.of_list (List.map snd runs)))

(* Repeat [unit] until [seconds] of wall time have passed (at least
   once); returns the results in order and the median wall and CPU time
   of one unit. *)
let repeat_for ~seconds unit =
  let t0 = Spec.now () in
  let rec go acc =
    let r, wall, cpu = Spec.time_cpu unit in
    let acc = (r, wall, cpu) :: acc in
    if Spec.now () -. t0 >= seconds then List.rev acc else go acc
  in
  let runs = go [] in
  let med f = Pct.median (Array.of_list (List.map f runs)) in
  ( List.map (fun (r, _, _) -> r) runs,
    med (fun (_, w, _) -> w),
    med (fun (_, _, c) -> c) )

let count_in (detected : bool array) ids =
  List.fold_left (fun n i -> if detected.(i) then n + 1 else n) 0 ids

(* Scalar reference grading of [tests]: the check every packed result is
   compared against. *)
let scalar_grade s tests =
  let prev = Fault_sim.packed_enabled () in
  Fault_sim.set_packed false;
  Fun.protect
    ~finally:(fun () -> Fault_sim.set_packed prev)
    (fun () -> Fault_sim.detected_by_tests s.c tests s.faults)

let report_failure what = Printf.eprintf "perfbench: CHECK FAILED: %s\n%!" what

(* Run [check] on each result; the number that fail. *)
let count_failures check results =
  List.length (List.filter (fun r -> not (check r)) results)

let gc_delta f =
  let g0 = Gc.quick_stat () in
  let r, dt = Spec.time f in
  let g1 = Gc.quick_stat () in
  ( r,
    dt,
    [
      ("gc.minor_mw", (g1.Gc.minor_words -. g0.Gc.minor_words) /. 1e6);
      ( "gc.major_collections",
        float (g1.Gc.major_collections - g0.Gc.major_collections) );
    ] )

(* The traced run: one untraced unit for the overhead baseline and the
   GC figures, then a traced set-up and unit with the metrics registry
   reset, both aggregated per span and collected into a Chrome trace
   written to [trace_out].  [unit] returns its result and per-layer
   extras; [span] names the benchmark span that wraps the unit's calls
   into the program. *)
let traced ~trace_out ~do_setup ~unit ~span =
  let s = do_setup () in
  let _, t_plain, gc = gc_delta (fun () -> unit s) in
  Metrics.reset ();
  let setup_agg = Span.agg () and run_agg = Span.agg () in
  let collector = Trace.collector () in
  let setup_extras = Layers.span_extras () and run_extras = Layers.span_extras () in
  let install agg extras =
    Span.set_sink
      (List.fold_left Span.tee (Span.agg_sink agg)
         [ Trace.sink collector; Layers.span_extras_sink extras ])
  in
  install setup_agg setup_extras;
  let s = do_setup () in
  install run_agg run_extras;
  let (result, extras), t_traced =
    Fun.protect
      ~finally:(fun () -> Span.set_sink Span.Null)
      (fun () -> Spec.time (fun () -> unit s))
  in
  Trace.write ~process_name:"perfbench" collector trace_out;
  let rows = Span.agg_rows setup_agg @ Span.agg_rows run_agg in
  let total name =
    List.fold_left
      (fun acc r -> if r.Span.row_name = name then acc +. r.Span.total_s else acc)
      0. rows
  in
  let extras =
    extras @ gc
    @ [
        ("target_sets.build_s", total "bench.target_sets");
        ("fault_sim.prepare_s", total "bench.prepare");
        ("fault_sim.grade_s", total "bench.grade");
        ("trace.overhead_pct", 100. *. (t_traced -. t_plain) /. t_plain);
        ( "trace.span_coverage_pct",
          100. *. Layers.main_self_s run_extras /. total span );
      ]
  in
  let counter = Layers.counters_of_snapshot (Metrics.snapshot ()) in
  let alloc name =
    Layers.self_alloc_mw setup_extras name +. Layers.self_alloc_mw run_extras name
  in
  (s, result, Layers.compute ~rows ~alloc ~counter ~extras)

(* ------------------------------------------------------------------ *)
(* Enrichment                                                          *)
(* ------------------------------------------------------------------ *)

let enrich_unit ?ledger cfg s =
  Span.with_ "bench.enrich" (fun () ->
      Atpg.enrich ?ledger ~justify:cfg.justify s.c ~seed:enrich_seed
        ~faults:s.faults ~p0:s.p0 ~p1:s.p1)

(* Correctness of one enrichment result: the scalar reference re-grades
   the returned tests to the same flags, every P0 fault is detected or
   counted as an aborted primary, and the run agrees with [first] (the
   run is deterministic). *)
let enrich_ok s ~(first : Atpg.result) (r : Atpg.result) =
  let checks =
    [
      ("scalar re-grade equals the run's detected flags",
       scalar_grade s r.Atpg.tests = r.Atpg.detected);
      ("p0_detected + aborted >= |P0|",
       count_in r.Atpg.detected s.p0 + r.Atpg.primary_aborts >= List.length s.p0);
      ("identical to the first run",
       r.Atpg.detected = first.Atpg.detected
       && List.equal Test_pair.equal r.Atpg.tests first.Atpg.tests);
    ]
  in
  List.for_all
    (fun (what, ok) ->
      if not ok then report_failure what;
      ok)
    checks

(* The portfolio's winning member per test, from the ledger. *)
let wins ledger =
  let n label =
    List.length
      (Ledger.find ledger ~kind:"test" (fun r ->
           match Ledger.get_string r "engine" with
           | Some e -> label e
           | None -> false))
  in
  [
    ("portfolio.wins.podem", float (n (String.equal "podem")));
    ("portfolio.wins.sim", float (n (String.equal "sim")));
    ("portfolio.wins.restarts", float (n (String.starts_with ~prefix:"sim-r")));
  ]

let run_enrich cfg ~seconds ~trace ~trace_out =
  Pool.set_default_jobs cfg.jobs;
  let do_setup () = setup ~circuit:cfg.circuit ~n_p:cfg.n_p ~n_p0:cfg.n_p0 in
  if trace then begin
    let s, r, layers =
      traced ~trace_out ~span:"bench.enrich" ~do_setup ~unit:(fun s ->
          let ledger = Ledger.create () in
          let r = enrich_unit ~ledger cfg s in
          (r, ("atpg.aborted", float r.Atpg.primary_aborts) :: wins ledger))
    in
    let failed = count_failures (enrich_ok s ~first:r) [ r ] in
    { Spec.e2e = []; layers; attempted = 1; failed }
  end
  else begin
    let s, setup_s =
      timed_setups cfg.setups ~circuit:cfg.circuit ~n_p:cfg.n_p ~n_p0:cfg.n_p0
    in
    let results, wall_s, run_s = repeat_for ~seconds (fun () -> enrich_unit cfg s) in
    let first = List.hd results in
    let failed = count_failures (enrich_ok s ~first) results in
    let e2e =
      [ ("setup_s", setup_s); ("run_s", run_s);
        ("peak_rss_mb", Spec.peak_rss_mb "self");
        ("p0_detected", float (count_in first.Atpg.detected s.p0));
        ("p1_detected", float (Fault_sim.count first.Atpg.detected));
        ("tests", float (List.length first.Atpg.tests)) ]
    in
    Printf.eprintf
      "enrichment: %d/%d P0 and %d/%d P0 u P1 faults detected, %d tests, \
       %d aborted primaries (%d run(s), median %.3fs wall, %.3fs CPU)\n%!"
      (count_in first.Atpg.detected s.p0) (List.length s.p0)
      (Fault_sim.count first.Atpg.detected) (Array.length s.faults)
      (List.length first.Atpg.tests) first.Atpg.primary_aborts
      (List.length results) wall_s run_s;
    { Spec.e2e; layers = []; attempted = List.length results; failed }
  end

(* ------------------------------------------------------------------ *)
(* Grading                                                             *)
(* ------------------------------------------------------------------ *)

(* Batch [b] of pass [pass]: fully specified random two-pattern tests
   from a stream seeded by the run seed, the pass and the batch index, so
   a batch can be regenerated without keeping the pass in memory. *)
let gen_batch cfg ~seed ~num_pis ~pass b =
  let rng = Rng.create ((((seed * 1_000_003) + pass) * 1_000_003) + b) in
  let pattern () = Array.init num_pis (fun _ -> Rng.bool rng) in
  List.init cfg.batch_tests (fun _ ->
      let v1 = pattern () in
      Test_pair.create v1 (pattern ()))

let grade_batch pool s tests =
  Span.with_ "bench.grade" (fun () ->
      Fault_sim.detected_by_tests ~pool s.c tests s.faults)

(* One grading pass: every batch graded packed and OR-merged.  Returns
   the merged flags and the wall and CPU time spent inside the grading
   calls only; generating each batch stays outside those sums, so the
   timing is the fault simulator's and memory stays flat. *)
let grade_pass cfg pool ~seed s pass =
  let num_pis = s.c.Circuit.num_pis in
  let acc = Array.make (Array.length s.faults) false in
  let wall = ref 0. and cpu = ref 0. in
  for b = 0 to cfg.batches - 1 do
    let tests = gen_batch cfg ~seed ~num_pis ~pass b in
    let flags, w, c = Spec.time_cpu (fun () -> grade_batch pool s tests) in
    wall := !wall +. w;
    cpu := !cpu +. c;
    Array.iteri (fun i d -> if d then acc.(i) <- true) flags
  done;
  (acc, !wall, !cpu)

(* Packed and scalar grading agree on the first batch. *)
let grade_reference_ok cfg pool ~seed s =
  let tests = gen_batch cfg ~seed ~num_pis:s.c.Circuit.num_pis ~pass:0 0 in
  let ok = grade_batch pool s tests = scalar_grade s tests in
  if not ok then report_failure "packed and scalar flags differ on batch 0";
  ok

(* [cfg.passes] passes over independent test streams; the quality figures
   are per-pass means, which keeps their seed-to-seed spread small. *)
let run_grade cfg ~seed ~trace ~trace_out =
  Pool.with_pool ~jobs:1 @@ fun pool ->
  let do_setup () = setup ~circuit:cfg.g_circuit ~n_p:cfg.g_n_p ~n_p0:cfg.g_n_p0 in
  let tests = cfg.batch_tests * cfg.batches in
  if trace then begin
    let s, flags, layers =
      traced ~trace_out ~span:"bench.pass" ~do_setup ~unit:(fun s ->
          (Span.with_ "bench.pass" (fun () ->
               let flags, _, _ = grade_pass cfg pool ~seed s 0 in
               flags),
           []))
    in
    let ok = grade_reference_ok cfg pool ~seed s && Array.exists Fun.id flags in
    { Spec.e2e = []; layers; attempted = 1; failed = (if ok then 0 else 1) }
  end
  else begin
    let s, setup_s =
      timed_setups cfg.g_setups ~circuit:cfg.g_circuit ~n_p:cfg.g_n_p
        ~n_p0:cfg.g_n_p0
    in
    let passes = List.init cfg.passes (fun k -> grade_pass cfg pool ~seed s k) in
    let reference_ok = grade_reference_ok cfg pool ~seed s in
    let mean f =
      List.fold_left (fun acc (flags, _, _) -> acc +. float (f flags)) 0. passes
      /. float cfg.passes
    in
    let p0 = mean (fun d -> count_in d s.p0) and p = mean Fault_sim.count in
    let med f = Pct.median (Array.of_list (List.map f passes)) in
    let wall_s = med (fun (_, w, _) -> w) and run_s = med (fun (_, _, c) -> c) in
    let e2e =
      [
        ("setup_s", setup_s);
        ("run_s", run_s);
        ("peak_rss_mb", Spec.peak_rss_mb "self");
        ("p0_detected", p0);
        ("p1_detected", p);
        (* a fixed input size here, not a figure the program produces *)
        ("tests", float tests);
      ]
    in
    Printf.eprintf
      "grading: %.1f/%d P0 and %.1f/%d P faults detected per pass of %d \
       tests (%d passes, grading median %.3fs wall, %.3fs CPU)\n%!"
      p0 (List.length s.p0) p (Array.length s.faults) tests cfg.passes wall_s
      run_s;
    { Spec.e2e; layers = []; attempted = cfg.passes + 1;
      failed = (if reference_ok then 0 else 1) }
  end
