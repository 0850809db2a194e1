(* The benchmark's metric catalogue.  BENCHMARK.json lists the same
   names and units; the test suite checks that the two agree. *)

let workloads =
  [ "enrich-s1423s"; "enrich-portfolio-b09"; "grade-s9234s"; "serve-mixed-b09" ]

(* Reported with tracing off, by every workload.  See METRICS.md for
   what each means on each workload. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("run_s", "s");
    ("peak_rss_mb", "MB");
    ("p0_detected", "count");
    ("p1_detected", "count");
    ("tests", "count");
  ]

(* Reported by the traced run, by every workload; a layer the workload
   does not exercise reads 0. *)
let per_layer =
  [
    ("enumerate.self_s", "s");
    ("enumerate.steps", "count");
    ("undetectable.self_s", "s");
    ("undetectable.alloc_mw", "Mw");
    ("target_sets.build_s", "s");
    ("target_sets.undetectable_direct", "count");
    ("target_sets.undetectable_implication", "count");
    ("fault_sim.prepare_s", "s");
    ("justify.self_s", "s");
    ("justify.alloc_mw", "Mw");
    ("justify.runs", "count");
    ("justify.trials", "count");
    ("justify.trial_evals", "count");
    ("justify.resim_gates", "count");
    ("justify.conflict_hits", "count");
    ("justify.evals_per_trial", "ratio");
    ("justify.ns_per_trial", "ns");
    ("compact.self_s", "s");
    ("compact.alloc_mw", "Mw");
    ("atpg.delta_evals", "count");
    ("atpg.secondary_attempted", "count");
    ("atpg.secondary_folded", "count");
    ("atpg.aborted", "count");
    ("compact.fold_ratio", "ratio");
    ("podem.self_s", "s");
    ("podem.decisions", "count");
    ("podem.imply_gates", "count");
    ("podem.backtracks", "count");
    ("podem.aborts", "count");
    ("portfolio.wins.podem", "count");
    ("portfolio.wins.sim", "count");
    ("portfolio.wins.restarts", "count");
    ("fault_sim.grade_s", "s");
    ("fault_sim.self_s", "s");
    ("fault_sim.word_batches", "count");
    ("fault_sim.lane_fill", "ratio");
    ("sim.inc.resim_gates", "count");
    ("serve.light_p50_ms", "ms");
    ("serve.light_p99_ms", "ms");
    ("serve.light_samples", "count");
    ("serve.light_unloaded_ms", "ms");
    ("serve.light_wait_ms", "ms");
    ("serve.heavy_p50_s", "s");
    ("serve.heavy_per_s", "1/s");
    ("serve.enrich_miss_s", "s");
    ("serve.enrich_hit_ms", "ms");
    ("serve.session.enrichment_hit_ratio", "ratio");
    ("serve.session.answer_hit_ratio", "ratio");
    ("serve.gen_lag_ms", "ms");
    ("serve.errors", "count");
    ("gc.minor_mw", "Mw");
    ("gc.major_collections", "count");
    ("trace.overhead_pct", "%");
    ("trace.span_coverage_pct", "%");
  ]

let is_name_char c =
  match c with
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> true
  | _ -> false

let is_alnum c =
  match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true | _ -> false

(* A metric or workload name: starts with a letter or digit, at most 64
   characters from [A-Za-z0-9_.-]. *)
let valid_name s =
  let n = String.length s in
  n >= 1 && n <= 64 && is_alnum s.[0] && String.for_all is_name_char s

(* A unit: at most 16 characters from [A-Za-z0-9_/%.-]. *)
let valid_unit s =
  let n = String.length s in
  n >= 1 && n <= 16
  && String.for_all (fun c -> is_name_char c || c = '/' || c = '%') s

let unit_of name =
  match List.assoc_opt name end_to_end with
  | Some u -> u
  | None -> List.assoc name per_layer

(* What one benchmark run reports.  [attempted]/[failed] count
   operations: a timed run of the workload's unit for batch workloads,
   a request for serve; a failed correctness check fails its
   operation. *)
type outcome = {
  e2e : (string * float) list;
  layers : (string * float) list;
  attempted : int;
  failed : int;
}

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* User plus system CPU time of this process, all domains together.
   Unlike the wall clock it leaves out time the host takes the CPU away
   (steal time on a shared VM). *)
let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* [f ()] with its wall and CPU time. *)
let time_cpu f =
  let t0 = now () and c0 = cpu_now () in
  let r = f () in
  (r, now () -. t0, cpu_now () -. c0)

(* User plus system CPU time of process [pid] so far, from
   /proc/PID/stat (fields 14 and 15, in USER_HZ ticks, 100 a second on
   Linux); 0 when /proc is unreadable. *)
let proc_cpu_s pid =
  let path = Printf.sprintf "/proc/%d/stat" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> 0.
  | stat -> (
    (* split after the command name, which may hold spaces: field 3 is
       then at index 0 *)
    let after = String.rindex stat ')' + 2 in
    let fields =
      String.split_on_char ' ' (String.sub stat after (String.length stat - after))
    in
    match (List.nth_opt fields 11, List.nth_opt fields 12) with
    | Some utime, Some stime -> float (int_of_string utime + int_of_string stime) /. 100.
    | _ -> 0.)

(* Peak resident set ([VmHWM]) of a process, in MB; 0 when /proc is
   unreadable. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> 0.
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0.
      | line ->
        (match Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id with
         | Some kb -> float kb /. 1024.
         | None -> scan ())
    in
    Fun.protect ~finally:(fun () -> close_in ic) scan
