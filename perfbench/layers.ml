(* Per-layer metrics of a traced run.  Every value is read from outside
   the program: the span aggregate (self time of each in-program span),
   self allocation per span ([alloc], in Mw), the metrics registry's
   counters, and figures the benchmark measured itself around its calls
   ([extras]).  A layer the workload does not reach reads 0. *)

module Span = Pdf_obs.Span
module Metrics = Pdf_obs.Metrics

(* Counter/gauge lookup over a registry snapshot; absent names read 0. *)
let counters_of_snapshot snap name =
  match List.assoc_opt name snap with
  | Some (Metrics.Counter_v v) -> float v
  | Some (Metrics.Gauge_v v) -> v
  | Some (Metrics.Histogram_v _) | None -> 0.

let ratio num den = if den > 0. then num /. den else 0.

(* What the span aggregate does not give: self allocation per span name
   and the self time of in-program spans on the main track.  A span
   record carries the words its domain allocated while it was open,
   children included; children close before their parent, so summing
   the records that closed one level deeper on the same track gives the
   part to subtract.  Pool workers run on other tracks, so the main
   track's self time is the share of the wall clock the program's own
   spans account for. *)
type span_extras = {
  lock : Mutex.t;
  words : (string, float) Hashtbl.t;  (** self words per span name *)
  below : (int * int, float) Hashtbl.t;  (** (track, depth) -> closed children's words *)
  mutable main_self_s : float;  (** track 0, spans not named [bench.*] *)
}

let span_extras () =
  {
    lock = Mutex.create ();
    words = Hashtbl.create 16;
    below = Hashtbl.create 16;
    main_self_s = 0.;
  }

let span_extras_sink t =
  Span.Emit
    (fun (r : Span.record) ->
      Mutex.protect t.lock (fun () ->
          let get tbl k = Option.value ~default:0. (Hashtbl.find_opt tbl k) in
          let child = (r.Span.track, r.Span.depth + 1)
          and here = (r.Span.track, r.Span.depth) in
          let self = Float.max 0. (r.Span.alloc_words -. get t.below child) in
          Hashtbl.replace t.below child 0.;
          Hashtbl.replace t.below here (get t.below here +. r.Span.alloc_words);
          Hashtbl.replace t.words r.Span.name (get t.words r.Span.name +. self);
          if r.Span.track = 0 && not (String.starts_with ~prefix:"bench." r.Span.name)
          then t.main_self_s <- t.main_self_s +. r.Span.self_s))

let self_alloc_mw t name =
  Mutex.protect t.lock (fun () ->
      Option.value ~default:0. (Hashtbl.find_opt t.words name) /. 1e6)

let main_self_s t = Mutex.protect t.lock (fun () -> t.main_self_s)

let compute ~(rows : Span.agg_row list) ~(alloc : string -> float)
    ~(counter : string -> float) ~(extras : (string * float) list) =
  let self name =
    List.fold_left
      (fun acc r -> if r.Span.row_name = name then acc +. r.Span.agg_self_s else acc)
      0. rows
  in
  let trials = counter "justify.trials"
  and attempted = counter "atpg.values.secondary_attempted"
  and batches = counter "fault_sim.word_batches" in
  let derived =
    [
      ("enumerate.self_s", self "enumerate");
      ("enumerate.steps", counter "enumerate.steps");
      ("undetectable.self_s", self "undetectable");
      ("undetectable.alloc_mw", alloc "undetectable");
      ("target_sets.undetectable_direct", counter "target_sets.undetectable_direct");
      ( "target_sets.undetectable_implication",
        counter "target_sets.undetectable_implication" );
      ("justify.self_s", self "justify");
      ("justify.alloc_mw", alloc "justify");
      ("justify.runs", counter "justify.runs");
      ("justify.trials", trials);
      ("justify.trial_evals", counter "justify.trial_evals");
      ("justify.resim_gates", counter "justify.resim_gates");
      ("justify.conflict_hits", counter "justify.conflict_hits");
      ("justify.evals_per_trial", ratio (counter "justify.trial_evals") trials);
      ("justify.ns_per_trial", ratio (1e9 *. self "justify") trials);
      ("compact.self_s", self "compact");
      ("compact.alloc_mw", alloc "compact");
      ("atpg.delta_evals", counter "atpg.delta_evals");
      ("atpg.secondary_attempted", attempted);
      ("atpg.secondary_folded", counter "atpg.values.secondary_folded");
      ( "compact.fold_ratio",
        ratio (counter "atpg.values.secondary_folded") attempted );
      ("podem.self_s", self "podem");
      ("podem.decisions", counter "podem.decisions");
      ("podem.imply_gates", counter "podem.imply_gates");
      ("podem.backtracks", counter "podem.backtracks");
      ("podem.aborts", counter "podem.aborts");
      (* the packed kernel's span nests inside fault-sim's *)
      ("fault_sim.self_s", self "fault-sim" +. self "bitsim");
      ("fault_sim.word_batches", batches);
      ( "fault_sim.lane_fill",
        ratio (counter "fault_sim.lanes_used")
          (float Pdf_values.Word.lanes *. batches) );
      ("sim.inc.resim_gates", counter "sim.inc.resim_gates");
    ]
  in
  List.map
    (fun (name, _) ->
      let v =
        match List.assoc_opt name extras with
        | Some v -> v
        | None -> Option.value ~default:0. (List.assoc_opt name derived)
      in
      (name, v))
    Spec.per_layer
