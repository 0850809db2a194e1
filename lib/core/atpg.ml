module Req = Pdf_values.Req
module Bit = Pdf_values.Bit
module Triple = Pdf_values.Triple
module Word = Pdf_values.Word
module Wreq = Pdf_bitsim.Wreq
module Wsim = Pdf_bitsim.Wsim
module Circuit = Pdf_circuit.Circuit
module Rng = Pdf_util.Rng
module Metrics = Pdf_obs.Metrics
module Span = Pdf_obs.Span
module Log = Pdf_obs.Log
module Ledger = Pdf_obs.Ledger
module Attrib = Pdf_obs.Attrib
module Implication = Pdf_sim.Implication
module Heap = Pdf_util.Heap

let m_delta_evals = Metrics.counter "atpg.delta_evals"

type config = {
  ordering : Ordering.t;
  seed : int;
}

type result = {
  tests : Test_pair.t list;
  detected : bool array;
  primary_aborts : int;
  justification_runs : int;
  justification_trials : int;
  runtime_s : float;
}

(* [delta acc reqs] — the requirement values a candidate fault adds on top
   of the accumulated set: [None] on a direct conflict, otherwise the
   per-net merged updates together with [n_Delta], the number of newly
   pinned components (the paper's value-based selection metric). *)
let delta acc reqs =
  let count_new (current : Req.t) (want : Req.t) =
    let one cur_c want_c =
      match cur_c, want_c with
      | _, Req.Any -> Some 0
      | Req.Any, Req.Must _ -> Some 1
      | Req.Must a, Req.Must b -> if a = b then Some 0 else None
    in
    match
      one current.Req.r1 want.Req.r1, one current.Req.r2 want.Req.r2,
      one current.Req.r3 want.Req.r3
    with
    | Some a, Some b, Some c -> Some (a + b + c)
    | _, _, _ -> None
  in
  let exception Clash in
  Metrics.incr m_delta_evals;
  try
    (* Small hash table keyed by net: requirement lists repeat nets, and
       the assoc-list accumulator this replaces was quadratic in the
       requirement count on the hottest compaction path.  Its fold order
       becomes the requirement order handed to justification, so it is
       created with [~random:false]: results must not depend on the hash
       seed ([OCAMLRUNPARAM=R]). *)
    let updates : (int, Req.t) Hashtbl.t = Hashtbl.create ~random:false 16 in
    let n =
      List.fold_left
        (fun n (net, req) ->
          let current =
            match Hashtbl.find_opt updates net with
            | Some r -> r
            | None -> (
              match Hashtbl.find_opt acc net with
              | Some r -> r
              | None -> Req.any)
          in
          match count_new current req with
          | None -> raise Clash
          | Some added ->
            let merged =
              match Req.merge current req with
              | Some m -> m
              | None -> assert false (* count_new succeeded *)
            in
            Hashtbl.replace updates net merged;
            n + added)
        0 reqs
    in
    Some (Hashtbl.fold (fun net req l -> (net, req) :: l) updates [], n)
  with Clash -> None

(* Count-only [n_Delta] for the value-based scan: the count and the
   conflict verdict of {!delta}, against per-net requirement codes
   instead of a hash table and an updates list per candidate.  A code
   holds two bits per component (component [k] at bits [2k], [2k+1]):
   [01] pins 0, [10] pins 1, [00] leaves it free, so the union of two
   codes that do not clash is their merge.  [acc_code] mirrors the
   current test's accumulated requirements (live where [acc_stamp]
   equals [acc_id]); [new_code] holds the merge of the candidate being
   counted so far (live where [new_stamp] equals [new_id]). *)
type delta_scratch = {
  acc_code : int array;
  acc_stamp : int array;
  mutable acc_id : int;
  new_code : int array;
  new_stamp : int array;
  mutable new_id : int;
}

let delta_scratch nets =
  {
    acc_code = Array.make nets 0;
    acc_stamp = Array.make nets (-1);
    acc_id = 0;
    new_code = Array.make nets 0;
    new_stamp = Array.make nets (-1);
    new_id = 0;
  }

let req_code (r : Req.t) =
  let comp shift = function
    | Req.Any -> 0
    | Req.Must false -> 1 lsl shift
    | Req.Must true -> 2 lsl shift
  in
  comp 0 r.Req.r1 lor comp 2 r.Req.r2 lor comp 4 r.Req.r3

(* One bit (0, 2 or 4) per pinned component. *)
let pinned code = (code lor (code lsr 1)) land 0b010101

let rec count_new ds n = function
  | [] -> n
  | (net, want) :: rest ->
    let cur =
      if ds.new_stamp.(net) = ds.new_id then ds.new_code.(net)
      else if ds.acc_stamp.(net) = ds.acc_id then ds.acc_code.(net)
      else 0
    in
    let w = req_code want in
    let pc = pinned cur and pw = pinned w in
    if pc land pw land lnot (pinned (cur land w)) <> 0 then -1
    else begin
      let added = pw land lnot pc in
      if added <> 0 then begin
        ds.new_code.(net) <- cur lor w;
        ds.new_stamp.(net) <- ds.new_id
      end;
      count_new ds
        (n + (added land 1) + ((added lsr 2) land 1) + ((added lsr 4) land 1))
        rest
    end

(* [n_Delta] of [reqs] on top of the accumulated set, or -1 on a direct
   conflict. *)
let n_delta ds reqs =
  Metrics.incr m_delta_evals;
  ds.new_id <- ds.new_id + 1;
  count_new ds 0 reqs

let reqs_with acc updates =
  Hashtbl.fold
    (fun net req l ->
      if List.mem_assoc net updates then l else (net, req) :: l)
    acc updates

let shuffle rng ids =
  let a = Array.of_list ids in
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  Array.to_list a

(* Rank of every fault under the configured ordering; lower rank is
   selected first (both as primary and when scanning secondaries). *)
let compute_ranks config (faults : Fault_sim.prepared array) =
  let n = Array.length faults in
  let ids = List.init n (fun i -> i) in
  let order =
    match config.ordering with
    | Ordering.Uncompacted | Ordering.Arbitrary ->
      shuffle (Rng.create (config.seed lxor 0x5eed)) ids
    | Ordering.Length_based | Ordering.Value_based ->
      List.sort
        (fun a b ->
          let la = faults.(a).Fault_sim.length
          and lb = faults.(b).Fault_sim.length in
          if la <> lb then Int.compare lb la else Int.compare a b)
        ids
  in
  let rank = Array.make n 0 in
  List.iteri (fun pos id -> rank.(id) <- pos) order;
  rank

type test_state = {
  mutable test : Test_pair.t;
  acc : (int, Req.t) Hashtbl.t;
      (** the test's accumulated requirements; created with
          [~random:false], since {!reqs_with} folds it into the
          requirement order handed to justification *)
}

(* Extend the values implied by the accumulated requirements with the
   updates just committed to them. *)
let imply imp updates =
  match Implication.add imp updates with
  | Ok () -> ()
  | Error _ ->
    (* The accumulated requirements are always witnessed satisfiable by
       the current test. *)
    assert false

(* A candidate's conditions contradict the values implied by the
   accumulated requirements: adding it can never succeed. *)
let contradicts_implied imp reqs =
  let admits component net want =
    Req.compatible_bit (Implication.value imp ~component net) want
  in
  List.exists
    (fun (net, (req : Req.t)) ->
      not
        (admits 1 net req.Req.r1 && admits 2 net req.Req.r2
        && admits 3 net req.Req.r3))
    reqs

let generate ?ledger ?attrib ?justify c config ~faults ~primaries
    ~secondary_pools =
  Span.with_ "atpg" @@ fun () ->
  let t0 = Unix.gettimeofday () in
  (* One attribution sheet for everything this (single-domain) run owns:
     the justify engine, the incremental refresh state and the candidate
     delta scans all bump it unsynchronised; it is merged into the
     shared store once, at the end of the run. *)
  let sheet = Option.map Attrib.fresh attrib in
  let jkind =
    match justify with Some k -> k | None -> Justify.default_kind ()
  in
  let engine = Justify.Engine.create ?attrib:sheet ~kind:jkind c in
  let runs0 = Justify.Engine.runs engine
  and trials0 = Justify.Engine.trials engine in
  let nets = Circuit.num_nets c and np = c.Circuit.num_pis in
  (* Candidate-scan attribution: charge every delta evaluation to the
     candidate's requirement nets (shadowing the bare [delta] and
     [n_delta]). *)
  let note_scan reqs =
    match sheet with Some a -> Attrib.note_cand_scan a reqs | None -> ()
  in
  let delta acc reqs =
    note_scan reqs;
    delta acc reqs
  in
  let ds = delta_scratch nets in
  let n_delta reqs =
    note_scan reqs;
    n_delta ds reqs
  in
  (* Commit [updates] to the test's accumulated requirements and to
     their per-net code mirror. *)
  let commit st updates =
    List.iter
      (fun (net, req) ->
        Hashtbl.replace st.acc net req;
        ds.acc_code.(net) <- req_code req;
        ds.acc_stamp.(net) <- ds.acc_id)
      updates
  in
  (* The current test's values: three run-owned scalar planes, and one
     run-owned triple per net.  Consecutive accepted tests within one
     compaction pass differ in a handful of PI bits, so the incremental
     engine re-evaluates only the changed cone instead of three full
     passes (PDF_INCSIM=0 runs the full passes of [Test_pair.simulate]
     instead, into the same planes), and only the nets whose triple
     changed are rewritten; the triples are identical either way.
     [values_gen] counts the assignments, for the lazy masks below. *)
  let planes = Array.init 3 (fun _ -> Array.make nets Bit.X) in
  let inc =
    if Wsim.incsim_enabled () then
      Some (Inc_sim.create ?attrib:sheet c ~s:planes)
    else None
  in
  let values = Array.make nets Triple.unknown in
  let values_gen = ref 0 in
  let simulate_test test =
    incr values_gen;
    let s0 = planes.(0) and s1 = planes.(1) and s2 = planes.(2) in
    (match inc with
    | Some inc ->
      for pi = 0 to np - 1 do
        Inc_sim.set_pi inc pi
          ~v1:(Bit.of_bool test.Test_pair.v1.(pi))
          ~v3:(Bit.of_bool test.Test_pair.v3.(pi))
      done;
      Inc_sim.propagate inc
    | None ->
      for pi = 0 to np - 1 do
        let b1 = Bit.of_bool test.Test_pair.v1.(pi)
        and b3 = Bit.of_bool test.Test_pair.v3.(pi) in
        s0.(pi) <- b1;
        s1.(pi) <- Pdf_sim.Two_pattern.middle_of_pair b1 b3;
        s2.(pi) <- b3
      done;
      let eval = Pdf_sim.Logic_sim.eval_gate in
      for gi = 0 to Circuit.num_gates c - 1 do
        let g = c.Circuit.gates.(gi) and out = Circuit.net_of_gate c gi in
        s0.(out) <- eval s0 g;
        s1.(out) <- eval s1 g;
        s2.(out) <- eval s2 g
      done);
    for net = 0 to nets - 1 do
      let v = values.(net) in
      if
        not
          (Bit.equal v.Triple.v1 s0.(net)
          && Bit.equal v.Triple.v2 s1.(net)
          && Bit.equal v.Triple.v3 s2.(net))
      then values.(net) <- Triple.make s0.(net) s1.(net) s2.(net)
    done
  in
  let ord_name = Ordering.name config.ordering in
  (* Provenance (DESIGN.md §9): everything recorded in the ledger is
     derived from the sequential generation loop and the seed — no
     timestamps, no schedule-dependent data — so the emitted JSONL is
     byte-identical across --jobs and scalar/packed simulation. *)
  let with_ledger f = Option.iter f ledger in
  let fault_name i = Pdf_faults.Fault.to_string c faults.(i).Fault_sim.fault in
  (* Per-ordering counters: the same pipeline run exercises several
     compaction heuristics, and their work must not be conflated. *)
  let cnt suffix =
    Metrics.counter ("atpg." ^ Ordering.name config.ordering ^ "." ^ suffix)
  in
  let m_primaries = cnt "primaries_attempted"
  and m_primary_aborts = cnt "primary_aborts"
  and m_tests = cnt "tests"
  and m_cand = cnt "secondary_attempted"
  and m_folded = cnt "secondary_folded"
  and m_free = cnt "secondary_free"
  and m_rej_conflict = cnt "secondary_rejected_conflict"
  and m_rej_implied = cnt "secondary_rejected_implied"
  and m_rej_search = cnt "secondary_rejected_search"
  and m_accidental = cnt "accidental_detections" in
  let h_folded_per_test =
    Metrics.histogram
      ~buckets:[| 0.; 1.; 2.; 5.; 10.; 20.; 50.; 100. |]
      ("atpg." ^ Ordering.name config.ordering ^ ".folded_per_test")
  in
  let folded_this_test = ref 0 in
  let rng = Rng.create config.seed in
  let n = Array.length faults in
  (* Word-packed condition sets of every target: one pass of
     [Wreq.fault_mask] over the current test's values answers "which of
     these 63 faults does the candidate assignment detect" for a whole
     word of faults, replacing the per-fault requirement-list walks in
     both the free check and the end-of-test drop scan.  The scalar
     [Fault_sim.detects_values] path is kept verbatim as the reference
     (PDF_BITSIM=0) and agrees lane for lane.  A word is packed lazily:
     a new test assignment only marks every word stale (bumps
     [values_gen]), and [detects] packs a stale word on its first read,
     so a fold packs only the words its free checks touch and the
     end-of-test drop scan packs each word at most once.  [packs] is
     [[||]] when the packed engine is disabled. *)
  let packs =
    if Fault_sim.packed_enabled () then
      Wreq.pack_faults (Array.map (fun p -> p.Fault_sim.reqs) faults)
    else [||]
  in
  let masks = Array.make (Array.length packs) 0 in
  let mask_gen = Array.make (Array.length packs) (-1) in
  let detects i =
    if Array.length packs = 0 then Fault_sim.detects_values values faults.(i)
    else begin
      let w = i / Word.lanes in
      if mask_gen.(w) <> !values_gen then begin
        masks.(w) <- Wreq.fault_mask packs.(w) values;
        mask_gen.(w) <- !values_gen
      end;
      masks.(w) land (1 lsl (i mod Word.lanes)) <> 0
    end
  in
  let detected = Array.make n false in
  let tried = Array.make n false in
  let rank = compute_ranks config faults in
  let by_rank ids =
    List.sort (fun a b -> Int.compare rank.(a) rank.(b)) ids
  in
  let primaries = by_rank primaries in
  let pools = List.map by_rank secondary_pools in
  let aborts = ref 0 in
  let tests = ref [] in
  with_ledger (fun l ->
      Ledger.record l ~kind:"run"
        [
          ("ordering", Ledger.S ord_name);
          ("seed", Ledger.I config.seed);
          ("justify", Ledger.S (Justify.kind_name jkind));
          ("faults", Ledger.I n);
          ("primaries", Ledger.I (List.length primaries));
          ( "pools",
            Ledger.L (List.map (fun p -> Ledger.I (List.length p)) pools) );
        ]);
  (* Per-fault provenance state.  [reject_reason] keeps the most recent
     rejection cause so an uncovered fault can be explained; [folded_at]
     and [detected_via] pin each fault to the test that absorbed or
     detected it. *)
  let reject_reason = Array.make n `Never in
  let folded_at = Array.make n (-1) in
  let detected_via : (int * string) option array = Array.make n None in
  (* Per-fault justification effort, accumulated over every search that
     targeted the fault — its primary attempt plus each candidate
     attempt — and the forensics of its most recent conflicting
     attempt.  All deltas come from the per-engine scalar counters, so
     the recorded figures are engine- and jobs-invariant like the rest
     of the ledger. *)
  let eff_runs = Array.make n 0
  and eff_trials = Array.make n 0
  and eff_backtracks = Array.make n 0
  and eff_resim_gates = Array.make n 0 in
  let last_conflict : Justify.forensics option array = Array.make n None in
  let targeted_run i f =
    let r0 = Justify.Engine.runs engine
    and t0 = Justify.Engine.trials engine
    and b0 = Justify.Engine.backtracks engine
    and g0 = Justify.Engine.resim_gates engine in
    Justify.Engine.reset_forensics engine;
    let res = f () in
    eff_runs.(i) <- eff_runs.(i) + (Justify.Engine.runs engine - r0);
    eff_trials.(i) <- eff_trials.(i) + (Justify.Engine.trials engine - t0);
    eff_backtracks.(i) <- eff_backtracks.(i) + (Justify.Engine.backtracks engine - b0);
    eff_resim_gates.(i) <-
      eff_resim_gates.(i) + (Justify.Engine.resim_gates engine - g0);
    let fo = Justify.Engine.forensics engine in
    if fo.Justify.last_net >= 0 then last_conflict.(i) <- Some fo;
    res
  in
  let next_test_id = ref 0 in
  let cur_test_id = ref (-1) in
  (* Winning engine per finalised test: every accepted test's assignment
     came from the engine's most recent successful dispatch (the primary
     justification, or the last accepted candidate re-justification). *)
  let test_engine : (int, string) Hashtbl.t = Hashtbl.create 16 in
  let cur_folded = ref [] in
  let note_folded i via =
    folded_at.(i) <- !cur_test_id;
    with_ledger (fun _ ->
        cur_folded :=
          Ledger.O
            [
              ("id", Ledger.I i);
              ("fault", Ledger.S (fault_name i));
              ("step", Ledger.I !folded_this_test);
              ("via", Ledger.S via);
            ]
          :: !cur_folded)
  in
  (* Live progress: gauges a dashboard can scrape plus an Info-level
     event stream, both updated once per generated test. *)
  let ndet = ref 0 in
  let g_prog_tests = Metrics.gauge ("atpg." ^ ord_name ^ ".progress_tests")
  and g_prog_detected =
    Metrics.gauge ("atpg." ^ ord_name ^ ".progress_detected")
  in
  (* Values implied by the current test's accumulated requirements:
     reset at each new test, then extended by every committed fold. *)
  let imp = Implication.create c in
  (* Try to add candidate [i] to the current test's fault set: free if the
     test already detects it, otherwise re-justify the enlarged
     requirement union.  On acceptance, return the requirement values
     newly pinned ([Delta]). *)
  let try_candidate st i =
    Metrics.incr m_cand;
    match delta st.acc faults.(i).Fault_sim.reqs with
    | None ->
      Metrics.incr m_rej_conflict;
      reject_reason.(i) <- `Conflict;
      None
    | Some (updates, _) ->
      if detects i then begin
        commit st updates;
        imply imp updates;
        Metrics.incr m_free;
        Metrics.incr m_folded;
        incr folded_this_test;
        note_folded i "free";
        Some updates
      end
      else if contradicts_implied imp faults.(i).Fault_sim.reqs then begin
        Metrics.incr m_rej_implied;
        reject_reason.(i) <- `Implied;
        None
      end
      else begin
        match
          targeted_run i (fun () ->
              Justify.Engine.run engine ~rng ~reqs:(reqs_with st.acc updates))
        with
        | Some test ->
          st.test <- test;
          simulate_test test;
          commit st updates;
          imply imp updates;
          Metrics.incr m_folded;
          incr folded_this_test;
          note_folded i "justified";
          Some updates
        | None ->
          Metrics.incr m_rej_search;
          reject_reason.(i) <- `Search;
          None
      end
  in
  let scan_pool_in_order st pool =
    List.iter
      (fun i ->
        if not detected.(i) then ignore (try_candidate st i))
      pool
  in
  (* Value-based scan: repeatedly attempt the candidate adding the fewest
     new required values.  [n_Delta] is cached per candidate in [nd] and
     a lazy-deletion heap holds the pool keyed on (n_Delta, rank), packed
     into one int; an entry is stale once its candidate has left the pool
     or its count has moved.  Ranks are a permutation, so the pick is the
     pool's argmin.  An acceptance re-counts, once each, the candidates
     that share a net with the values it pinned (the pool's net ->
     candidates index) and re-pushes those whose count moved.  A pass
     therefore costs one count per candidate, one per (acceptance,
     sharing candidate) and a heap operation per count that moved. *)
  let in_pool = Array.make n false and nd = Array.make n 0 in
  let counted_at = Array.make n (-1) and acceptances = ref 0 in
  let of_rank = Array.make n 0 in
  Array.iteri (fun i r -> of_rank.(r) <- i) rank;
  let heap = Heap.create ~leq:(fun (a : int) b -> a <= b) in
  let stale key =
    let i = of_rank.(key mod n) in
    (not in_pool.(i)) || nd.(i) <> key / n
  in
  let refresh i =
    let d = n_delta faults.(i).Fault_sim.reqs in
    if d < 0 then begin
      in_pool.(i) <- false (* direct conflict: rejected *);
      reject_reason.(i) <- `Conflict
    end
    else if d <> nd.(i) then begin
      nd.(i) <- d;
      Heap.push heap ((d * n) + rank.(i))
    end
  in
  (* The pool's net -> candidates index, built once per run: the
     candidates reading net [k] are [slots.(start.(k)) ..
     slots.(start.(k + 1) - 1)]. *)
  let index_pool pool =
    let start = Array.make (nets + 1) 0 in
    let each f =
      List.iter (fun i -> List.iter (f i) faults.(i).Fault_sim.reqs) pool
    in
    each (fun _ (net, _) -> start.(net + 1) <- start.(net + 1) + 1);
    for k = 1 to nets do
      start.(k) <- start.(k) + start.(k - 1)
    done;
    let fill = Array.sub start 0 nets in
    let slots = Array.make start.(nets) 0 in
    each (fun i (net, _) ->
        slots.(fill.(net)) <- i;
        fill.(net) <- fill.(net) + 1);
    (pool, start, slots)
  in
  let scan_pool_value_based st (pool, start, slots) =
    List.iter
      (fun i ->
        if not detected.(i) then begin
          in_pool.(i) <- true;
          nd.(i) <- -1 (* no count yet: the first one pushes *);
          refresh i
        end)
      pool;
    let continue = ref true in
    while !continue do
      match Heap.pop_while heap stale with
      | None -> continue := false
      | Some key ->
        let i = of_rank.(key mod n) in
        in_pool.(i) <- false;
        (match try_candidate st i with
        | None -> ()
        | Some updates ->
          incr acceptances;
          List.iter
            (fun (net, _) ->
              for k = start.(net) to start.(net + 1) - 1 do
                let j = slots.(k) in
                if in_pool.(j) && counted_at.(j) <> !acceptances then begin
                  counted_at.(j) <- !acceptances;
                  refresh j
                end
              done)
            updates)
    done
  in
  let indexed_pools =
    match config.ordering with
    | Ordering.Value_based -> List.map index_pool pools
    | Ordering.Uncompacted | Ordering.Arbitrary | Ordering.Length_based -> []
  in
  let next_primary () =
    List.fold_left
      (fun acc i ->
        if detected.(i) || tried.(i) then acc
        else
          match acc with
          | Some j when rank.(j) <= rank.(i) -> acc
          | Some _ | None -> Some i)
      None primaries
  in
  let running = ref true in
  while !running do
    match next_primary () with
    | None -> running := false
    | Some p0 ->
      tried.(p0) <- true;
      Metrics.incr m_primaries;
      let j_runs0 = Justify.Engine.runs engine
      and j_trials0 = Justify.Engine.trials engine
      and j_bt0 = Justify.Engine.backtracks engine in
      (match
         targeted_run p0 (fun () ->
             Justify.Engine.run engine ~rng ~reqs:faults.(p0).Fault_sim.reqs)
       with
      | None ->
        incr aborts;
        Metrics.incr m_primary_aborts
      | Some test ->
        let st = { test; acc = Hashtbl.create ~random:false 64 } in
        simulate_test test;
        let updates =
          match delta st.acc faults.(p0).Fault_sim.reqs with
          | Some (updates, _) -> updates
          | None -> assert false
        in
        ds.acc_id <- ds.acc_id + 1;
        commit st updates;
        Implication.reset imp;
        imply imp updates;
        folded_this_test := 0;
        let id = !next_test_id in
        incr next_test_id;
        cur_test_id := id;
        cur_folded := [];
        Span.with_ "compact" (fun () ->
            match config.ordering with
            | Ordering.Uncompacted -> ()
            | Ordering.Arbitrary | Ordering.Length_based ->
              List.iter (fun pool -> scan_pool_in_order st pool) pools
            | Ordering.Value_based ->
              List.iter (scan_pool_value_based st) indexed_pools);
        Metrics.observe_int h_folded_per_test !folded_this_test;
        Hashtbl.replace test_engine id (Justify.Engine.winner engine);
        tests := st.test :: !tests;
        Metrics.incr m_tests;
        (* Fault simulation: drop everything the final test detects.  A
           packed mask word still stale from the last accepted assignment
           is packed on its first read here, so this scan packs each word
           at most once and is otherwise a word-mask read per fault. *)
        Span.with_ "fault-sim" (fun () ->
            Array.iteri
              (fun i _ ->
                if (not detected.(i)) && detects i then begin
                  detected.(i) <- true;
                  incr ndet;
                  let via =
                    if i = p0 then "primary"
                    else if folded_at.(i) = id then "folded"
                    else "accidental"
                  in
                  detected_via.(i) <- Some (id, via);
                  if i <> p0 then Metrics.incr m_accidental
                end)
              faults);
        with_ledger (fun l ->
            Ledger.record l ~kind:"test"
              [
                ("id", Ledger.I id);
                ("ordering", Ledger.S ord_name);
                ("primary", Ledger.I p0);
                ("primary_fault", Ledger.S (fault_name p0));
                ("pattern", Ledger.S (Test_pair.to_string st.test));
                ("engine", Ledger.S (Hashtbl.find test_engine id));
                ("folded", Ledger.L (List.rev !cur_folded));
                ( "justify",
                  Ledger.O
                    [
                      ("runs", Ledger.I (Justify.Engine.runs engine - j_runs0));
                      ("trials", Ledger.I (Justify.Engine.trials engine - j_trials0));
                      ( "backtracks",
                        Ledger.I (Justify.Engine.backtracks engine - j_bt0) );
                    ] );
              ]);
        Metrics.set_int g_prog_tests (id + 1);
        Metrics.set_int g_prog_detected !ndet;
        if Log.enabled Log.Info then
          Log.event ~fields:
            [ ("ordering", ord_name);
              ("tests", string_of_int (id + 1));
              ("detected", string_of_int !ndet);
              ("faults", string_of_int n) ]
            "atpg.progress")
  done;
  with_ledger (fun l ->
      Array.iteri
        (fun i _ ->
          let disposition =
            if detected.(i) then
              match detected_via.(i) with
              | Some (t, via) ->
                [
                  ("disposition", Ledger.S "detected");
                  ("test", Ledger.I t);
                  ("via", Ledger.S via);
                  ("engine", Ledger.S (Hashtbl.find test_engine t));
                ]
              | None -> assert false
            else if tried.(i) then [ ("disposition", Ledger.S "aborted") ]
            else
              let reason =
                match reject_reason.(i) with
                | `Never -> "never_targeted"
                | `Conflict -> "conflict"
                | `Implied -> "implied"
                | `Search -> "search"
              in
              [
                ("disposition", Ledger.S "uncovered");
                ("reason", Ledger.S reason);
              ]
          in
          let effort =
            [
              ( "effort",
                Ledger.O
                  [
                    ("runs", Ledger.I eff_runs.(i));
                    ("trials", Ledger.I eff_trials.(i));
                    ("backtracks", Ledger.I eff_backtracks.(i));
                    ("resim_gates", Ledger.I eff_resim_gates.(i));
                  ] );
            ]
          in
          let forensic =
            match last_conflict.(i) with
            | Some fo ->
              [
                ( "last_conflict",
                  Ledger.O
                    [
                      ("net", Ledger.I fo.Justify.last_net);
                      ( "name",
                        Ledger.S (Circuit.net_name c fo.Justify.last_net) );
                      ("level", Ledger.I fo.Justify.last_level);
                      ("deepest_level", Ledger.I fo.Justify.deepest_level);
                    ] );
              ]
            | None -> []
          in
          Ledger.record l ~kind:"fault"
            ([ ("id", Ledger.I i); ("fault", Ledger.S (fault_name i)) ]
            @ disposition @ effort @ forensic))
        faults);
  Option.iter
    (fun inc ->
      Inc_sim.record ~num_gates:(Circuit.num_gates c) (Inc_sim.stats inc))
    inc;
  (match attrib, sheet with
  | Some store, Some sh -> Attrib.merge store sh
  | _ -> ());
  let result =
    {
      tests = List.rev !tests;
      detected;
      primary_aborts = !aborts;
      justification_runs = Justify.Engine.runs engine - runs0;
      justification_trials = Justify.Engine.trials engine - trials0;
      runtime_s = Unix.gettimeofday () -. t0;
    }
  in
  Log.debug "atpg(%s): %d tests, %d/%d detected, %d aborts"
    (Ordering.name config.ordering)
    (List.length result.tests)
    (Fault_sim.count detected) (Array.length faults) !aborts;
  result

let basic ?ledger ?attrib ?justify c config ~faults =
  let ids = List.init (Array.length faults) (fun i -> i) in
  let pools =
    match config.ordering with
    | Ordering.Uncompacted -> []
    | Ordering.Arbitrary | Ordering.Length_based | Ordering.Value_based ->
      [ ids ]
  in
  generate ?ledger ?attrib ?justify c config ~faults ~primaries:ids
    ~secondary_pools:pools

let enrich ?ledger ?attrib ?justify c ~seed ~faults ~p0 ~p1 =
  generate ?ledger ?attrib ?justify c
    { ordering = Ordering.Value_based; seed }
    ~faults ~primaries:p0 ~secondary_pools:[ p0; p1 ]

let enrich_multi ?ledger ?attrib ?justify c ~seed ~faults ~pools =
  match pools with
  | [] -> invalid_arg "Atpg.enrich_multi: no pools"
  | first :: _ ->
    generate ?ledger ?attrib ?justify c
      { ordering = Ordering.Value_based; seed }
      ~faults ~primaries:first ~secondary_pools:pools

let count_detected result ~ids =
  List.fold_left
    (fun acc i -> if result.detected.(i) then acc + 1 else acc)
    0 ids
