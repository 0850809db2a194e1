module Bit = Pdf_values.Bit
module Triple = Pdf_values.Triple
module Word = Pdf_values.Word
module Req = Pdf_values.Req
module Circuit = Pdf_circuit.Circuit
module Two_pattern = Pdf_sim.Two_pattern
module Wsim = Pdf_bitsim.Wsim
module Fault = Pdf_faults.Fault
module Target_sets = Pdf_faults.Target_sets
module Delay_model = Pdf_paths.Delay_model
module Fault_sim = Pdf_core.Fault_sim
module Inc_sim = Pdf_core.Inc_sim
module Test_pair = Pdf_core.Test_pair
module Atpg = Pdf_core.Atpg
module Justify = Pdf_core.Justify
module Podem = Pdf_core.Podem
module Timing = Pdf_core.Timing
module Ordering = Pdf_core.Ordering
module Ledger = Pdf_obs.Ledger
module Attrib = Pdf_obs.Attrib
module Pool = Pdf_par.Pool
module Rng = Pdf_util.Rng

type ctx = { circuit : Circuit.t; seed : int }

type outcome = Pass | Fail of string | Skip of string

type t = { name : string; doc : string; check : ctx -> outcome }

(* ------------------------------------------------------------------ *)
(* Shared reference oracles                                             *)
(* ------------------------------------------------------------------ *)

let max_brute_force_pis = 10

let brute_force c reqs =
  let n = c.Circuit.num_pis in
  if n > max_brute_force_pis then
    invalid_arg
      (Printf.sprintf "Oracle.brute_force: %d PIs exceeds the %d-PI cap" n
         max_brute_force_pis);
  let bits v =
    let a = Array.make n false in
    for i = 0 to n - 1 do
      a.(i) <- v land (1 lsl i) <> 0
    done;
    a
  in
  let limit = 1 lsl n in
  let found = ref None in
  let v1 = ref 0 in
  while !found = None && !v1 < limit do
    let b1 = bits !v1 in
    let v3 = ref 0 in
    while !found = None && !v3 < limit do
      let t = Test_pair.create b1 (bits !v3) in
      if Test_pair.satisfies c t reqs then found := Some t;
      incr v3
    done;
    incr v1
  done;
  !found

let brute_force_satisfiable c reqs = Option.is_some (brute_force c reqs)

(* ------------------------------------------------------------------ *)
(* Helpers                                                              *)
(* ------------------------------------------------------------------ *)

let with_packed enabled f =
  let saved = Fault_sim.packed_enabled () in
  Fault_sim.set_packed enabled;
  Fun.protect ~finally:(fun () -> Fault_sim.set_packed saved) f

let with_default_jobs jobs f =
  let saved = Pool.default_jobs () in
  Pool.set_default_jobs jobs;
  Fun.protect ~finally:(fun () -> Pool.set_default_jobs saved) f

let random_pattern rng n =
  let a = Array.make n false in
  for i = 0 to n - 1 do
    a.(i) <- Rng.bool rng
  done;
  a

(* A random requirement set: the values a random test pair simulates to
   on a few nets, each component kept with probability 2/3 (satisfiable,
   so mostly consistent), optionally followed by a few uniformly random
   pins, which usually make it conflict. *)
let random_reqs rng c =
  let nets = Circuit.num_nets c in
  let pin_of bit =
    match Bit.to_bool bit with
    | Some b when Rng.int rng 3 > 0 -> Req.Must b
    | Some _ | None -> Req.Any
  in
  let values =
    Test_pair.simulate c
      (Test_pair.create
         (random_pattern rng c.Circuit.num_pis)
         (random_pattern rng c.Circuit.num_pis))
  in
  let from_test =
    List.init (1 + Rng.int rng 6) (fun _ ->
        let net = Rng.int rng nets in
        let (v : Triple.t) = values.(net) in
        ( net,
          { Req.r1 = pin_of v.Triple.v1; r2 = pin_of v.Triple.v2;
            r3 = pin_of v.Triple.v3 } ))
  in
  let random_pin () =
    let comp () = if Rng.bool rng then Req.Must (Rng.bool rng) else Req.Any in
    let r1 = comp () in
    let r2 = comp () in
    let r3 = comp () in
    (Rng.int rng nets, { Req.r1; r2; r3 })
  in
  from_test @ List.init (Rng.int rng 4) (fun _ -> random_pin ())

let random_tests rng c n =
  let pis = c.Circuit.num_pis in
  let rec go acc k =
    if k = 0 then List.rev acc
    else
      let v1 = random_pattern rng pis in
      let v3 = random_pattern rng pis in
      go (Test_pair.create v1 v3 :: acc) (k - 1)
  in
  go [] n

(* Small target sets keep every oracle subsecond on the generator grid
   while still exercising multi-pool enrichment.  The budget must reach
   well past the longest paths: in deep reconvergent circuits those are
   mostly robustly untestable, and a tight budget would leave every
   fault-based oracle with an empty pool (a permanent Skip). *)
let target_faults c =
  let model = Delay_model.lines c in
  let ts = Target_sets.build c model ~n_p:240 ~n_p0:40 in
  let faults = Fault_sim.prepare c ts.Target_sets.p in
  (model, ts, faults)

let describe_test c t = Printf.sprintf "%s on %s" (Test_pair.to_string t) c.Circuit.name

let bool_arrays_diff a b =
  if Array.length a <> Array.length b then Some (-1)
  else
    let d = ref None in
    Array.iteri (fun i x -> if !d = None && x <> b.(i) then d := Some i) a;
    !d

(* ------------------------------------------------------------------ *)
(* packed-sim: Wsim vs Two_pattern, lane for lane                       *)
(* ------------------------------------------------------------------ *)

let check_packed_sim { circuit = c; seed } =
  let rng = Rng.create seed in
  let n = c.Circuit.num_pis in
  let lanes = Word.lanes in
  (* Roughly one lane in five carries an X on each pattern bit, so both
     polarities of partially specified tests are exercised. *)
  let rand_bit () =
    if Rng.int rng 5 = 0 then Bit.X
    else if Rng.bool rng then Bit.One
    else Bit.Zero
  in
  let b1 = Array.init n (fun _ -> Array.make lanes Bit.X) in
  let b3 = Array.init n (fun _ -> Array.make lanes Bit.X) in
  for pi = 0 to n - 1 do
    for l = 0 to lanes - 1 do
      b1.(pi).(l) <- rand_bit ();
      b3.(pi).(l) <- rand_bit ()
    done
  done;
  let w1 = Array.map Word.of_bits b1 in
  let w3 = Array.map Word.of_bits b3 in
  let planes = Wsim.simulate c ~w1 ~w3 ~lanes in
  let violation = ref None in
  for l = 0 to lanes - 1 do
    if !violation = None then begin
      let pairs =
        Array.init n (fun pi ->
            { Two_pattern.b1 = b1.(pi).(l); b3 = b3.(pi).(l) })
      in
      let scalar = Two_pattern.simulate c pairs in
      for net = 0 to Circuit.num_nets c - 1 do
        if !violation = None then begin
          let packed = Wsim.triple planes ~net ~lane:l in
          if not (Triple.equal scalar.(net) packed) then
            violation :=
              Some
                (Printf.sprintf
                   "packed simulation diverges on %s: net %s lane %d: \
                    scalar %s, packed %s"
                   c.Circuit.name (Circuit.net_name c net) l
                   (Triple.to_string scalar.(net))
                   (Triple.to_string packed))
        end
      done
    end
  done;
  match !violation with Some m -> Fail m | None -> Pass

(* ------------------------------------------------------------------ *)
(* inc-sim: incremental engines vs the full-pass references             *)
(* ------------------------------------------------------------------ *)

(* A randomized flip sequence over persistent incremental state: step 0
   installs fresh random words on every PI, one step is a zero-flip
   no-op [assign], and each remaining step flips a few random PIs (first
   pattern only, second pattern only, or both — with X lanes at the
   usual one-in-five rate).  After every step the packed [Wsim.Inc]
   planes must be word-identical to a from-scratch full pass over the
   same words, and the scalar [Inc_sim] state must agree with the
   scalar reference on lane 0.  This is the oracle that catches the
   [Wsim.set_inc_injected_bug] mutation (a w3-only flip dropped on the
   incremental path) — the harness's self-test for incremental-path
   divergence. *)
let inc_sim_steps = 8

let check_inc_sim { circuit = c; seed } =
  let rng = Rng.create seed in
  let n = c.Circuit.num_pis in
  let lanes = Word.lanes in
  let rand_bit () =
    if Rng.int rng 5 = 0 then Bit.X
    else if Rng.bool rng then Bit.One
    else Bit.Zero
  in
  let rand_word () = Word.of_bits (Array.init lanes (fun _ -> rand_bit ())) in
  let w1 = Array.init n (fun _ -> rand_word ()) in
  let w3 = Array.init n (fun _ -> rand_word ()) in
  let inc = Wsim.Inc.create c ~lanes in
  let s = Array.init 3 (fun _ -> Array.make (Circuit.num_nets c) Bit.X) in
  let sinc = Inc_sim.create c ~s in
  let violation = ref None in
  let check_packed step =
    let full = Wsim.simulate c ~w1 ~w3 ~lanes in
    for net = 0 to Circuit.num_nets c - 1 do
      for comp = 0 to 2 do
        if
          !violation = None
          && not
               (Word.equal
                  (Wsim.word (Wsim.Inc.planes inc) ~comp ~net)
                  (Wsim.word full ~comp ~net))
        then
          violation :=
            Some
              (Printf.sprintf
                 "incremental packed simulation diverges from the full pass \
                  on %s: step %d, net %s, component %d"
                 c.Circuit.name step (Circuit.net_name c net) comp)
      done
    done
  in
  let check_scalar step =
    let pairs =
      Array.init n (fun pi ->
          { Two_pattern.b1 = Word.get w1.(pi) 0; b3 = Word.get w3.(pi) 0 })
    in
    let scalar = Two_pattern.simulate c pairs in
    for net = 0 to Circuit.num_nets c - 1 do
      if
        !violation = None
        && not
             (Triple.equal scalar.(net)
                (Triple.make s.(0).(net) s.(1).(net) s.(2).(net)))
      then
        violation :=
          Some
            (Printf.sprintf
               "incremental scalar simulation diverges from the reference \
                on %s: step %d, net %s"
               c.Circuit.name step (Circuit.net_name c net))
    done
  in
  for step = 0 to inc_sim_steps - 1 do
    if !violation = None then begin
      (* Step 0 touches every PI (fresh words are already installed);
         step 1 flips nothing — the no-op assign must also converge. *)
      if step >= 2 then begin
        let flips = 1 + Rng.int rng 3 in
        for _ = 1 to flips do
          let pi = Rng.int rng n in
          match Rng.int rng 3 with
          | 0 -> w1.(pi) <- rand_word ()
          | 1 -> w3.(pi) <- rand_word ()
          | _ ->
            w1.(pi) <- rand_word ();
            w3.(pi) <- rand_word ()
        done
      end;
      Wsim.Inc.assign inc ~w1 ~w3;
      check_packed step;
      if !violation = None then begin
        for pi = 0 to n - 1 do
          Inc_sim.set_pi sinc pi ~v1:(Word.get w1.(pi) 0)
            ~v3:(Word.get w3.(pi) 0)
        done;
        Inc_sim.propagate sinc;
        check_scalar step
      end
    end
  done;
  match !violation with Some m -> Fail m | None -> Pass

(* ------------------------------------------------------------------ *)
(* packed-detect / packed-matrix: Fault_sim packed vs scalar            *)
(* ------------------------------------------------------------------ *)

(* 70 tests crosses the 63-lane threshold, so the packed run really
   takes the word-batched path (plus a 7-test scalar tail). *)
let n_detect_tests = 70

let check_packed_detect { circuit = c; seed } =
  let _, _, faults = target_faults c in
  if Array.length faults = 0 then Skip "no detectable target faults"
  else
    let rng = Rng.create seed in
    let tests = random_tests rng c n_detect_tests in
    let packed = with_packed true (fun () -> Fault_sim.detected_by_tests c tests faults) in
    let scalar = with_packed false (fun () -> Fault_sim.detected_by_tests c tests faults) in
    match bool_arrays_diff packed scalar with
    | None -> Pass
    | Some i ->
      Fail
        (Printf.sprintf
           "detected_by_tests diverges on %s: fault %d %s: packed %b, \
            scalar %b"
           c.Circuit.name i
           (Fault.to_string c faults.(i).Fault_sim.fault)
           packed.(i) scalar.(i))

let check_packed_matrix { circuit = c; seed } =
  let _, _, faults = target_faults c in
  if Array.length faults = 0 then Skip "no detectable target faults"
  else
    let rng = Rng.create seed in
    let tests = random_tests rng c n_detect_tests in
    let packed = with_packed true (fun () -> Fault_sim.detect_matrix c tests faults) in
    let scalar = with_packed false (fun () -> Fault_sim.detect_matrix c tests faults) in
    let violation = ref None in
    Array.iteri
      (fun t row ->
        if !violation = None then
          match bool_arrays_diff row scalar.(t) with
          | None -> ()
          | Some i ->
            violation :=
              Some
                (Printf.sprintf
                   "detect_matrix diverges on %s: test %d fault %d: packed \
                    %b, scalar %b"
                   c.Circuit.name t i row.(i) scalar.(t).(i)))
      packed;
    match !violation with Some m -> Fail m | None -> Pass

(* ------------------------------------------------------------------ *)
(* jobs-det: pool parallelism must not change detection results         *)
(* ------------------------------------------------------------------ *)

let check_jobs_det { circuit = c; seed } =
  let _, _, faults = target_faults c in
  if Array.length faults = 0 then Skip "no detectable target faults"
  else
    let rng = Rng.create seed in
    let tests = random_tests rng c n_detect_tests in
    let seq_flags, seq_matrix =
      Pool.with_pool ~jobs:1 (fun pool ->
          ( Fault_sim.detected_by_tests ~pool c tests faults,
            Fault_sim.detect_matrix ~pool c tests faults ))
    in
    let par_flags, par_matrix =
      Pool.with_pool ~jobs:3 (fun pool ->
          ( Fault_sim.detected_by_tests ~pool c tests faults,
            Fault_sim.detect_matrix ~pool c tests faults ))
    in
    match bool_arrays_diff seq_flags par_flags with
    | Some i ->
      Fail
        (Printf.sprintf
           "detected_by_tests depends on jobs on %s: fault %d: 1-job %b, \
            3-job %b"
           c.Circuit.name i seq_flags.(i) par_flags.(i))
    | None ->
      let violation = ref None in
      Array.iteri
        (fun t row ->
          if !violation = None then
            match bool_arrays_diff row par_matrix.(t) with
            | None -> ()
            | Some i ->
              violation :=
                Some
                  (Printf.sprintf
                     "detect_matrix depends on jobs on %s: test %d fault %d"
                     c.Circuit.name t i))
        seq_matrix;
      (match !violation with Some m -> Fail m | None -> Pass)

(* ------------------------------------------------------------------ *)
(* atpg-engine / atpg-jobs: whole enrichment runs must be identical     *)
(* across simulation engines and pool sizes, down to the ledger bytes   *)
(* ------------------------------------------------------------------ *)

let enrich_run c seed faults n0 =
  let ledger = Ledger.create () in
  let p0 = List.init n0 (fun i -> i) in
  let p1 = List.init (Array.length faults - n0) (fun i -> n0 + i) in
  let res = Atpg.enrich ~ledger c ~seed ~faults ~p0 ~p1 in
  (res, Ledger.to_jsonl ledger)

let compare_runs what c (a : Atpg.result) ja (b : Atpg.result) jb =
  if List.length a.Atpg.tests <> List.length b.Atpg.tests then
    Fail
      (Printf.sprintf "%s on %s: test counts differ (%d vs %d)" what
         c.Circuit.name
         (List.length a.Atpg.tests)
         (List.length b.Atpg.tests))
  else if not (List.for_all2 Test_pair.equal a.Atpg.tests b.Atpg.tests) then
    Fail (Printf.sprintf "%s on %s: test patterns differ" what c.Circuit.name)
  else
    match bool_arrays_diff a.Atpg.detected b.Atpg.detected with
    | Some i ->
      Fail
        (Printf.sprintf "%s on %s: detection flag of fault %d differs" what
           c.Circuit.name i)
    | None ->
      if a.Atpg.primary_aborts <> b.Atpg.primary_aborts then
        Fail
          (Printf.sprintf "%s on %s: abort counts differ (%d vs %d)" what
             c.Circuit.name a.Atpg.primary_aborts b.Atpg.primary_aborts)
      else if not (String.equal ja jb) then
        Fail
          (Printf.sprintf "%s on %s: ledger JSONL bytes differ" what
             c.Circuit.name)
      else Pass

let check_atpg_engine { circuit = c; seed } =
  let _, ts, faults = target_faults c in
  if Array.length faults = 0 then Skip "no detectable target faults"
  else
    let n0 = min (List.length ts.Target_sets.p0) (Array.length faults) in
    if n0 = 0 then Skip "empty P0"
    else
      let rp, jp = with_packed true (fun () -> enrich_run c seed faults n0) in
      let rs, js = with_packed false (fun () -> enrich_run c seed faults n0) in
      compare_runs "packed vs scalar enrichment" c rp jp rs js

let check_atpg_jobs { circuit = c; seed } =
  let _, ts, faults = target_faults c in
  if Array.length faults = 0 then Skip "no detectable target faults"
  else
    let n0 = min (List.length ts.Target_sets.p0) (Array.length faults) in
    if n0 = 0 then Skip "empty P0"
    else
      let r1, j1 = with_default_jobs 1 (fun () -> enrich_run c seed faults n0) in
      let r3, j3 = with_default_jobs 3 (fun () -> enrich_run c seed faults n0) in
      compare_runs "1-job vs 3-job enrichment" c r1 j1 r3 j3

(* ------------------------------------------------------------------ *)
(* justify-brute: justification claims vs exhaustive enumeration        *)
(* ------------------------------------------------------------------ *)

let max_justify_pis = 8

let check_justify_brute { circuit = c; seed } =
  if c.Circuit.num_pis > max_justify_pis then
    Skip
      (Printf.sprintf "%d PIs exceeds the %d-PI brute-force cap"
         c.Circuit.num_pis max_justify_pis)
  else
    let _, _, faults = target_faults c in
    if Array.length faults = 0 then Skip "no detectable target faults"
    else begin
      let rng = Rng.create seed in
      let engine = Justify.create c in
      let violation = ref None in
      let n_checked = min 12 (Array.length faults) in
      for i = 0 to n_checked - 1 do
        if !violation = None then begin
          let reqs = faults.(i).Fault_sim.reqs in
          let fname = Fault.to_string c faults.(i).Fault_sim.fault in
          (match Justify.run engine ~rng ~reqs with
          | Some t when not (Test_pair.satisfies c t reqs) ->
            violation :=
              Some
                (Printf.sprintf
                   "justification returned an unsound test for %s on %s: %s"
                   fname c.Circuit.name (describe_test c t))
          | _ -> ());
          if !violation = None then
            match Justify.run_complete ~max_backtracks:2000 engine ~reqs with
            | Justify.Found t when not (Test_pair.satisfies c t reqs) ->
              violation :=
                Some
                  (Printf.sprintf
                     "complete justification returned an unsound test for \
                      %s on %s"
                     fname c.Circuit.name)
            | Justify.Proved_unsatisfiable when brute_force_satisfiable c reqs
              ->
              violation :=
                Some
                  (Printf.sprintf
                     "complete justification claimed %s unsatisfiable on %s \
                      but brute force found a test"
                     fname c.Circuit.name)
            | _ -> ()
        end
      done;
      match !violation with Some m -> Fail m | None -> Pass
    end

(* ------------------------------------------------------------------ *)
(* justify-podem: the structural engine vs the simulation engine vs     *)
(* brute force, three ways                                              *)
(* ------------------------------------------------------------------ *)

(* Both complete engines make hard claims (Found / Proved_unsatisfiable)
   about the same satisfiability question, so any Found/Proved pair
   across them is a bug in one of them — no reference needed.  On small
   circuits brute-force enumeration arbitrates which.  Found tests are
   re-simulated through the independent scalar simulator; PODEM never
   re-checks its own answer, so this is what catches the
   [Podem.set_injected_bug] implication mutation.  [Gave_up] makes no
   claim and is never a violation. *)
let check_justify_podem { circuit = c; seed } =
  let _, _, faults = target_faults c in
  if Array.length faults = 0 then Skip "no detectable target faults"
  else begin
    let pod = Podem.create c in
    let sim = Justify.create c in
    let portfolio = Justify.Engine.create ~kind:Justify.Portfolio c in
    let rng = Rng.create seed in
    let small = c.Circuit.num_pis <= max_justify_pis in
    let violation = ref None in
    let fail fmt = Printf.ksprintf (fun m -> violation := Some m) fmt in
    let n_checked = min 12 (Array.length faults) in
    for i = 0 to n_checked - 1 do
      if !violation = None then begin
        let reqs = faults.(i).Fault_sim.reqs in
        let fname = Fault.to_string c faults.(i).Fault_sim.fault in
        let pr = Podem.run pod ~reqs in
        (match pr with
        | Podem.Found t when not (Test_pair.satisfies c t reqs) ->
          fail "PODEM returned an unsound test for %s on %s: %s" fname
            c.Circuit.name (describe_test c t)
        | _ -> ());
        if !violation = None then begin
          let sr = Justify.run_complete ~max_backtracks:2000 sim ~reqs in
          match (pr, sr) with
          | Podem.Found _, Justify.Proved_unsatisfiable ->
            fail
              "PODEM found a test for %s on %s but the simulation engine \
               proved it unsatisfiable"
              fname c.Circuit.name
          | Podem.Proved_unsatisfiable, Justify.Found _ ->
            fail
              "PODEM proved %s unsatisfiable on %s but the simulation \
               engine found a test"
              fname c.Circuit.name
          | Podem.Proved_unsatisfiable, _
            when small && brute_force_satisfiable c reqs ->
            fail
              "PODEM proved %s unsatisfiable on %s but brute force found a \
               test"
              fname c.Circuit.name
          | Podem.Found _, _
            when small && not (brute_force_satisfiable c reqs) ->
            fail
              "PODEM found a test for %s on %s but brute force says the \
               requirements are unsatisfiable"
              fname c.Circuit.name
          | _ -> ()
        end;
        (* The portfolio chain must be as sound as its members. *)
        if !violation = None then
          match Justify.Engine.run portfolio ~rng ~reqs with
          | Some t when not (Test_pair.satisfies c t reqs) ->
            fail "portfolio returned an unsound test for %s on %s: %s" fname
              c.Circuit.name (describe_test c t)
          | _ -> ()
      end
    done;
    match !violation with Some m -> Fail m | None -> Pass
  end

(* ------------------------------------------------------------------ *)
(* justify-trial: the event-driven trial vs the full-cone scan          *)
(* ------------------------------------------------------------------ *)

(* Two engines, each with its own attribution sheet, hold the same
   search under the same random partial assignment; every unspecified
   cone bit is then tried both ways on each, one through the production
   worklist and one through the reference scan.  The schedules must
   agree on everything the search and the ledger can observe: the
   verdict, the blamed conflict net, the evaluation count, the overlay
   each trial leaves behind, and the per-net evaluation and conflict
   charges.  A third engine then checks the dirty-bit schedule of the
   necessary-value passes on the same requirements, and on random
   requirement sets. *)
let clean_rounds = 16

let check_justify_trial { circuit = c; seed } =
  let _, _, faults = target_faults c in
  if Array.length faults = 0 then Skip "no detectable target faults"
  else begin
    let module I = Justify.Internal in
    let nets = Circuit.num_nets c in
    let sheet_w = Attrib.make_sheet ~nets in
    let sheet_r = Attrib.make_sheet ~nets in
    let ew = Justify.create ~attrib:sheet_w c in
    let er = Justify.create ~attrib:sheet_r c in
    let ec = Justify.create c in
    let rng = Rng.create seed in
    let violation = ref None in
    let fail fmt = Printf.ksprintf (fun m -> violation := Some m) fmt in
    (* Dirty-bit soundness: the production passes skip a clean bit, so
       every open bit the engine holds clean must pass a fresh trial both
       ways — after the passes, and after each random assignment made
       through the production path, until the search runs out of open
       bits, conflicts, or has taken [clean_rounds] assignments. *)
    let check_clean_bits fname sc =
      let pis = I.cone_pis sc in
      let open_bits () =
        Array.to_list pis
        |> List.concat_map (fun pi ->
               List.filter_map
                 (fun j -> if I.specified sc pi j then None else Some (pi, j))
                 [ 1; 3 ])
      in
      let check_clean after =
        List.iter
          (fun (pi, j) ->
            if I.clean sc pi j then
              List.iter
                (fun b ->
                  if !violation = None && I.trial sc pi j b then
                    fail
                      "bit %s.%d is clean %s but its trial at %b conflicts, \
                       for %s on %s"
                      (Circuit.net_name c pi) j after b fname c.Circuit.name)
                [ false; true ])
          (open_bits ())
      in
      let live = ref (I.necessary_values sc) and rounds = ref 0 in
      if !live then check_clean "after the necessary-value passes";
      while
        !live && !violation = None && !rounds < clean_rounds
        && open_bits () <> []
      do
        incr rounds;
        let bits = open_bits () in
        let pi, j = List.nth bits (Rng.int rng (List.length bits)) in
        let b = Rng.bool rng in
        I.assign sc pi j b;
        check_clean
          (Printf.sprintf "after assigning %s.%d=%b" (Circuit.net_name c pi) j
             b);
        if !violation = None then begin
          live := I.necessary_values sc;
          if !live then check_clean "after the necessary-value passes"
        end
      done
    in
    let check_search fname sw sr =
      let pis = I.cone_pis sw in
      let open_bits = ref [] in
      (* Each cone bit is assigned with probability [density]/4, the
         density drawn per search from 0..3. *)
      let density = Rng.int rng 4 in
      Array.iter
        (fun pi ->
          List.iter
            (fun j ->
              if Rng.int rng 4 < density then begin
                let b = Rng.bool rng in
                I.assign sw pi j b;
                I.assign sr pi j b
              end
              else open_bits := (pi, j) :: !open_bits)
            [ 1; 3 ])
        pis;
      List.iter
        (fun (pi, j) ->
          List.iter
            (fun b ->
              if !violation = None then begin
                Justify.reset_forensics ew;
                Justify.reset_forensics er;
                let cw = I.trial sw pi j b in
                let cr = I.reference_trial sr pi j b in
                let what =
                  Printf.sprintf "trial %s.%d=%b for %s on %s"
                    (Circuit.net_name c pi) j b fname c.Circuit.name
                in
                let net_w = (Justify.forensics ew).Justify.last_net
                and net_r = (Justify.forensics er).Justify.last_net in
                if cw <> cr then
                  fail "%s: worklist conflict=%b, reference scan conflict=%b"
                    what cw cr
                else if net_w <> net_r then
                  fail "%s: worklist blames net %d, reference scan net %d" what
                    net_w net_r
                else if I.trial_evals sw <> I.trial_evals sr then
                  fail "%s: worklist evaluated %d gates, reference scan %d" what
                    (I.trial_evals sw) (I.trial_evals sr)
                else if I.overlay sw <> I.overlay sr then
                  fail "%s: overlay values differ" what
              end)
            [ false; true ])
        (List.rev !open_bits);
      if !violation = None then
        if sheet_w.Attrib.trial_evals <> sheet_r.Attrib.trial_evals then
          fail "per-net trial_evals differ for %s on %s" fname c.Circuit.name
        else if sheet_w.Attrib.conflicts <> sheet_r.Attrib.conflicts then
          fail "per-net conflicts differ for %s on %s" fname c.Circuit.name
    in
    let n_checked = min 12 (Array.length faults) in
    for i = 0 to n_checked - 1 do
      if !violation = None then begin
        let reqs = faults.(i).Fault_sim.reqs in
        let fname = Fault.to_string c faults.(i).Fault_sim.fault in
        match (I.prepare ew ~reqs, I.prepare er ~reqs) with
        | Some sw, Some sr -> (
          check_search fname sw sr;
          match I.prepare ec ~reqs with
          | Some sc when !violation = None -> check_clean_bits fname sc
          | Some _ | None -> ())
        | None, None -> ()
        | _ -> fail "prepare disagrees for %s on %s" fname c.Circuit.name
      end
    done;
    (* Each random set also pins one PI on its intermediate value alone:
       the trial of either pattern bit reads the other one through that
       value, even when no cone gate reads the PI. *)
    for i = 1 to n_checked do
      if !violation = None then
        let pin =
          ( Rng.int rng c.Circuit.num_pis,
            { Req.r1 = Req.Any; r2 = Req.Must (Rng.bool rng); r3 = Req.Any } )
        in
        let reqs = pin :: random_reqs rng c in
        match I.prepare ec ~reqs with
        | Some sc ->
          check_clean_bits
            (Printf.sprintf "random requirement set %d" i)
            sc
        | None -> ()
    done;
    match !violation with Some m -> Fail m | None -> Pass
  end

(* ------------------------------------------------------------------ *)
(* implication: the event-driven engine vs the reference sweep          *)
(* ------------------------------------------------------------------ *)

let implication_sets = 40

let show_reqs c reqs =
  String.concat " "
    (List.map
       (fun (net, r) ->
         Printf.sprintf "%s=%s" (Circuit.net_name c net) (Req.to_string r))
       reqs)

(* [l] shuffled, then cut into [k] consecutive, possibly empty, chunks. *)
let shuffled_chunks rng k l =
  let a = Array.of_list l in
  let n = Array.length a in
  for i = n - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  let cuts =
    List.sort Int.compare (List.init (k - 1) (fun _ -> Rng.int rng (n + 1)))
  in
  let rec go from = function
    | [] -> [ Array.sub a from (n - from) ]
    | cut :: rest -> Array.sub a from (cut - from) :: go cut rest
  in
  List.map Array.to_list (go 0 cuts)

let all_x values =
  Array.for_all
    (fun (v : Triple.t) ->
      Bit.equal v.Triple.v1 Bit.X && Bit.equal v.Triple.v2 Bit.X
      && Bit.equal v.Triple.v3 Bit.X)
    values

let first_diff a b =
  let d = ref (-1) in
  Array.iteri
    (fun i x -> if !d < 0 && not (Triple.equal x b.(i)) then d := i)
    a;
  !d

(* Per random requirement set: the persistent event-driven state, reset
   and fed the whole set in one [add], must reach the reference sweep's
   verdict and, when consistent, its value on every net and layer; a
   second state fed a shuffle of the set in k random chunks must reach
   the same verdict and values; [reset] must leave every line X. *)
let check_implication { circuit = c; seed } =
  let module I = Pdf_sim.Implication in
  let rng = Rng.create seed in
  let whole = I.create c and chunked = I.create c in
  let violation = ref None in
  let fail fmt = Printf.ksprintf (fun m -> violation := Some m) fmt in
  let round = ref 0 in
  while !violation = None && !round < implication_sets do
    incr round;
    let reqs = random_reqs rng c in
    let what = Printf.sprintf "{%s} on %s" (show_reqs c reqs) c.Circuit.name in
    I.reset whole;
    I.reset chunked;
    if not (all_x (I.snapshot whole) && all_x (I.snapshot chunked)) then
      fail "reset left a definite value before %s" what
    else begin
      let k = 1 + Rng.int rng 4 in
      let parts = shuffled_chunks rng k reqs in
      let chunked_ok =
        List.for_all (fun part -> Result.is_ok (I.add chunked part)) parts
      in
      match (Implication_sweep.infer c reqs, I.add whole reqs) with
      | I.Consistent expected, Ok () ->
        let got = I.snapshot whole in
        let d = first_diff expected got in
        if d >= 0 then
          fail "%s: net %s implied %s by the sweep, %s by the worklist" what
            (Circuit.net_name c d)
            (Triple.to_string expected.(d))
            (Triple.to_string got.(d))
        else if not chunked_ok then
          fail "%s: consistent in one add, conflict in %d chunks" what k
        else
          let d = first_diff got (I.snapshot chunked) in
          if d >= 0 then
            fail "%s: net %s differs between one add and %d chunks" what
              (Circuit.net_name c d) k
      | I.Conflict _, Error _ ->
        if chunked_ok then
          fail "%s: conflict in one add, consistent in %d chunks" what k
      | I.Consistent _, Error { I.net; component } ->
        fail "%s: worklist conflict on %s (component %d), sweep consistent"
          what (Circuit.net_name c net) component
      | I.Conflict { net; component }, Ok () ->
        fail "%s: sweep conflict on %s (component %d), worklist consistent"
          what (Circuit.net_name c net) component
    end
  done;
  match !violation with Some m -> Fail m | None -> Pass

(* ------------------------------------------------------------------ *)
(* podem-imply: PODEM's event-driven implication vs the full-cone pass  *)
(* ------------------------------------------------------------------ *)

let podem_imply_sets = 30
let podem_imply_steps = 40

type podem_decision = {
  pd_pi : int;
  pd_j : int;
  mutable pd_value : bool;
  mutable pd_flipped : bool;
  pd_mark : int;
  pd_before : string;  (* snapshot before the decision's assignment *)
}

(* Per random requirement set: a PODEM search state driven through a
   random sequence of decide / flip / pop steps — the moves of the
   engine's chronological backtracking, a flip or pop undoing the trail
   to the decision's mark.  After every step the incremental implied
   values must equal the full-cone pass recomputed from the pattern bits
   on every net and component; a pop must restore the snapshot taken
   before the popped decision, and undoing to the search's first mark
   the snapshot taken right after preparation. *)
let check_podem_imply { circuit = c; seed } =
  let module I = Podem.Internal in
  let rng = Rng.create seed in
  let eng = Podem.create c in
  let violation = ref None in
  let fail fmt = Printf.ksprintf (fun m -> violation := Some m) fmt in
  let against_full what st =
    let full = I.imply_full st in
    for k = 0 to 2 do
      Array.iteri
        (fun net want ->
          let got = I.implied st k net in
          if !violation = None && not (Bit.equal got want) then
            fail "%s: net %s component %d is %c incrementally, %c by the \
                  full pass"
              what (Circuit.net_name c net) k (Bit.char got) (Bit.char want))
        full.(k)
    done
  in
  let run_search reqs st =
    let what = Printf.sprintf "{%s} on %s" (show_reqs c reqs) c.Circuit.name in
    let first = I.mark st and initial = I.snapshot st in
    let open_bits () =
      Array.fold_right
        (fun pi acc ->
          let acc =
            if Bit.equal (I.implied st 2 pi) Bit.X then (pi, 3) :: acc else acc
          in
          if Bit.equal (I.implied st 0 pi) Bit.X then (pi, 1) :: acc else acc)
        (I.cone_pis st) []
    in
    let stack = ref [] and steps = ref 0 and stop = ref false in
    while !violation = None && (not !stop) && !steps < podem_imply_steps do
      incr steps;
      let bits = open_bits () in
      match !stack with
      | [] when bits = [] -> stop := true
      | d :: rest when bits = [] || Rng.int rng 3 = 0 ->
        if (not d.pd_flipped) && Rng.bool rng then begin
          I.undo st d.pd_mark;
          d.pd_flipped <- true;
          d.pd_value <- not d.pd_value;
          I.assign st (d.pd_pi, d.pd_j, d.pd_value);
          against_full
            (Printf.sprintf "%s, after flipping %s.%d" what
               (Circuit.net_name c d.pd_pi) d.pd_j)
            st
        end
        else begin
          I.undo st d.pd_mark;
          stack := rest;
          if not (String.equal (I.snapshot st) d.pd_before) then
            fail "%s: popping %s.%d did not restore the state" what
              (Circuit.net_name c d.pd_pi) d.pd_j
        end
      | _ ->
        let pi, j = List.nth bits (Rng.int rng (List.length bits)) in
        let v = Rng.bool rng in
        let d =
          { pd_pi = pi; pd_j = j; pd_value = v; pd_flipped = false;
            pd_mark = I.mark st; pd_before = I.snapshot st }
        in
        I.assign st (pi, j, v);
        stack := d :: !stack;
        against_full
          (Printf.sprintf "%s, after deciding %s.%d=%b" what
             (Circuit.net_name c pi) j v)
          st
    done;
    if !violation = None then begin
      I.undo st first;
      if not (String.equal (I.snapshot st) initial) then
        fail "%s: undoing every decision did not restore the state" what
    end
  in
  let round = ref 0 in
  while !violation = None && !round < podem_imply_sets do
    incr round;
    let reqs = random_reqs rng c in
    match I.prepare eng ~reqs with
    | None -> ()
    | Some st -> run_search reqs st
  done;
  match !violation with Some m -> Fail m | None -> Pass

(* ------------------------------------------------------------------ *)
(* robust-timing: robust detection implies physical detection           *)
(* ------------------------------------------------------------------ *)

let max_timing_pairs = 80

let check_robust_timing { circuit = c; seed } =
  let model, _, faults = target_faults c in
  if Array.length faults = 0 then Skip "no detectable target faults"
  else begin
    let period = Timing.nominal_period c model in
    (* ATPG tests detect their targets by construction, so they supply
       far more (fault, test) detection pairs than random patterns. *)
    let res =
      Atpg.basic c { Atpg.ordering = Ordering.Length_based; seed } ~faults
    in
    let rng = Rng.create seed in
    let tests = res.Atpg.tests @ random_tests rng c 8 in
    let checked = ref 0 in
    let violation = ref None in
    List.iter
      (fun t ->
        if !violation = None && !checked < max_timing_pairs then
          let triples = Test_pair.simulate c t in
          Array.iter
            (fun (f : Fault_sim.prepared) ->
              if
                !violation = None
                && !checked < max_timing_pairs
                && Fault_sim.detects_values triples f
              then begin
                incr checked;
                let slack = period - f.Fault_sim.length in
                let inject =
                  { Timing.path = f.Fault_sim.fault.Fault.path;
                    extra = slack + 1 }
                in
                if not (Timing.detects c model ~t_sample:period ~inject t)
                then
                  violation :=
                    Some
                      (Printf.sprintf
                         "robust detection of %s on %s not confirmed by \
                          timing simulation (slack %d, test %s)"
                         (Fault.to_string c f.Fault_sim.fault)
                         c.Circuit.name slack (Test_pair.to_string t))
              end)
            faults)
      tests;
    match !violation with
    | Some m -> Fail m
    | None -> if !checked = 0 then Skip "no robust detections to check" else Pass
  end

(* ------------------------------------------------------------------ *)
(* enrich-p0: a-posteriori invariants of one enrichment run             *)
(* ------------------------------------------------------------------ *)

(* A naive cross-run "enrichment covers at least what uncomp covers"
   comparison is unsound: the randomized justification draws different
   streams in the two runs, so per-fault outcomes legitimately differ.
   The machine-checkable forms of the paper's non-regression claim are
   (a) every justifiable primary stays detected, i.e. P0 coverage is at
   least |P0| - primary_aborts (aborted primaries may still be detected
   accidentally by later tests, so this is a lower bound, not an
   equality); (b) the incrementally maintained flags equal a
   from-scratch re-simulation of the final test set; and (c) the ledger
   dispositions agree with the flags.  See DESIGN.md §10. *)
let check_enrich_p0 { circuit = c; seed } =
  let _, ts, faults = target_faults c in
  if Array.length faults = 0 then Skip "no detectable target faults"
  else
    let n0 = min (List.length ts.Target_sets.p0) (Array.length faults) in
    if n0 = 0 then Skip "empty P0"
    else begin
      let ledger = Ledger.create () in
      let p0 = List.init n0 (fun i -> i) in
      let p1 = List.init (Array.length faults - n0) (fun i -> n0 + i) in
      let res = Atpg.enrich ~ledger c ~seed ~faults ~p0 ~p1 in
      let covered = Atpg.count_detected res ~ids:p0 in
      if covered < n0 - res.Atpg.primary_aborts then
        Fail
          (Printf.sprintf
             "P0 coverage invariant violated on %s: %d covered < |P0| = %d \
              minus %d abort(s)"
             c.Circuit.name covered n0 res.Atpg.primary_aborts)
      else
        let resim = Fault_sim.detected_by_tests c res.Atpg.tests faults in
        match bool_arrays_diff res.Atpg.detected resim with
        | Some i ->
          Fail
            (Printf.sprintf
               "incremental detection flags disagree with batch \
                re-simulation on %s: fault %d: incremental %b, batch %b"
               c.Circuit.name i res.Atpg.detected.(i) resim.(i))
        | None ->
          let bad = ref None in
          List.iter
            (fun r ->
              if !bad = None then
                match (Ledger.get_int r "id", Ledger.get_string r "disposition")
                with
                | Some id, Some d ->
                  let flag = res.Atpg.detected.(id) in
                  if flag <> String.equal d "detected" then
                    bad :=
                      Some
                        (Printf.sprintf
                           "ledger disposition %S of fault %d contradicts \
                            detection flag %b on %s"
                           d id flag c.Circuit.name)
                | _ -> bad := Some "fault record missing id or disposition")
            (Ledger.find ledger ~kind:"fault" (fun _ -> true));
          (match !bad with Some m -> Fail m | None -> Pass)
    end

(* ------------------------------------------------------------------ *)
(* attrib: effort conservation — per-net attribution sums equal the     *)
(* sheet totals, which equal the global justify.*/sim.inc.*/atpg.*      *)
(* metric deltas, at 1 and 3 jobs; the merged sheets are identical      *)
(* ------------------------------------------------------------------ *)

module Metrics = Pdf_obs.Metrics

(* Every counter the attribution layer mirrors.  The first component
   names the metric, the second reads the matching sheet total, the
   third sums the matching per-net array (None for metrics with no
   per-net breakdown). *)
let attrib_ledger_lines (s : Attrib.sheet) =
  let sum a = Array.fold_left ( + ) 0 a in
  [
    ("justify.runs", s.Attrib.t_runs, None);
    ("justify.trials", s.Attrib.t_trials, Some (sum s.Attrib.trials));
    ("justify.trial_evals", s.Attrib.t_trial_evals,
     Some (sum s.Attrib.trial_evals));
    ("justify.resim_gates", s.Attrib.t_resim_gates,
     Some (sum s.Attrib.resim_cone));
    ("justify.conflict_hits", s.Attrib.t_conflicts,
     Some (sum s.Attrib.conflicts));
    ("justify.backtracks", s.Attrib.t_backtracks,
     Some (sum s.Attrib.backtracks));
    ("atpg.delta_evals", s.Attrib.t_cand_scans, None);
    ("sim.inc.resim_gates", s.Attrib.t_inc_resims,
     Some (sum s.Attrib.inc_resims));
  ]

let check_attrib { circuit = c; seed } =
  let _, ts, faults = target_faults c in
  if Array.length faults = 0 then Skip "no detectable target faults"
  else
    let n0 = min (List.length ts.Target_sets.p0) (Array.length faults) in
    if n0 = 0 then Skip "empty P0"
    else begin
      let metric name = Metrics.value (Metrics.counter name) in
      let run_with justify jobs =
        with_default_jobs jobs (fun () ->
            let attrib = Attrib.create ~nets:(Circuit.num_nets c) in
            let names = List.map (fun (n, _, _) -> n) (attrib_ledger_lines (Attrib.snapshot attrib)) in
            let before = List.map metric names in
            let p0 = List.init n0 (fun i -> i) in
            let p1 = List.init (Array.length faults - n0) (fun i -> n0 + i) in
            let res = Atpg.enrich ~attrib ~justify c ~seed ~faults ~p0 ~p1 in
            (* A batch fault-sim pass so the pool-merged packed path is
               part of the conservation window too. *)
            ignore (Fault_sim.detected_by_tests ~attrib c res.Atpg.tests faults);
            let after = List.map metric names in
            (Attrib.snapshot attrib, List.map2 ( - ) after before))
      in
      let violation = ref None in
      let check_run kind jobs (s : Attrib.sheet) deltas =
        List.iter2
          (fun (name, total, per_net) delta ->
            if !violation = None then
              if total <> delta then
                violation :=
                  Some
                    (Printf.sprintf
                       "effort not conserved on %s (%s, %d jobs): sheet \
                        total %d <> %s delta %d"
                       c.Circuit.name kind jobs total name delta)
              else
                match per_net with
                | Some sum when sum <> total ->
                  violation :=
                    Some
                      (Printf.sprintf
                         "per-net attribution of %s does not sum to its \
                          total on %s (%s, %d jobs): %d <> %d"
                         name c.Circuit.name kind jobs sum total)
                | _ -> ())
          (attrib_ledger_lines s) deltas
      in
      let check_kind justify =
        let kind = Justify.kind_name justify in
        let s1, d1 = run_with justify 1 in
        let s3, d3 = run_with justify 3 in
        check_run kind 1 s1 d1;
        check_run kind 3 s3 d3;
        if !violation = None then begin
          (* Merged sheets must be jobs-invariant, engine-variant
             counters included: batch bounds are fixed, so even the
             incremental dirty-cone work is identical at any pool
             size. *)
          let arrays (s : Attrib.sheet) =
            [ s.Attrib.trials; s.Attrib.trial_evals; s.Attrib.resim_cone;
              s.Attrib.conflicts; s.Attrib.backtracks; s.Attrib.cand_evals;
              s.Attrib.inc_resims ]
          in
          List.iter2
            (fun a b ->
              if !violation = None && a <> b then
                violation :=
                  Some
                    (Printf.sprintf
                       "merged attribution depends on the pool size on %s \
                        (%s)"
                       c.Circuit.name kind))
            (arrays s1) (arrays s3)
        end
      in
      (* The environment's backend, and the portfolio chain explicitly so
         its conservation is checked on every run. *)
      let kinds =
        match Justify.default_kind () with
        | Justify.Portfolio -> [ Justify.Portfolio ]
        | k -> [ k; Justify.Portfolio ]
      in
      List.iter (fun k -> if !violation = None then check_kind k) kinds;
      match !violation with Some m -> Fail m | None -> Pass
    end

(* ------------------------------------------------------------------ *)
(* Registry                                                             *)
(* ------------------------------------------------------------------ *)

let all =
  [
    { name = "packed-sim";
      doc = "bit-parallel simulation agrees with the scalar reference";
      check = check_packed_sim };
    { name = "inc-sim";
      doc = "incremental simulation equals a full pass after any flip sequence";
      check = check_inc_sim };
    { name = "packed-detect";
      doc = "packed and scalar detected_by_tests flags are identical";
      check = check_packed_detect };
    { name = "packed-matrix";
      doc = "packed and scalar detect_matrix rows are identical";
      check = check_packed_matrix };
    { name = "jobs-det";
      doc = "detection results are independent of the pool size";
      check = check_jobs_det };
    { name = "atpg-engine";
      doc = "enrichment is identical under packed and scalar engines";
      check = check_atpg_engine };
    { name = "atpg-jobs";
      doc = "enrichment is identical under 1 and 3 jobs, ledger included";
      check = check_atpg_jobs };
    { name = "justify-brute";
      doc = "justification claims agree with brute-force enumeration";
      check = check_justify_brute };
    { name = "justify-podem";
      doc = "PODEM, simulation-based and brute-force justification agree; \
             portfolio answers re-simulate";
      check = check_justify_podem };
    { name = "justify-trial";
      doc = "the event-driven justification trial agrees with the \
             full-cone scan it replaced";
      check = check_justify_trial };
    { name = "implication";
      doc = "the event-driven implication engine agrees with the fixpoint \
             sweep it replaced";
      check = check_implication };
    { name = "podem-imply";
      doc = "PODEM's event-driven implication with trail undo equals the \
             full-cone pass after every decide, flip and pop";
      check = check_podem_imply };
    { name = "robust-timing";
      doc = "robust detection implies event-driven timing detection";
      check = check_robust_timing };
    { name = "enrich-p0";
      doc = "P0 coverage, detection flags and ledger dispositions cohere";
      check = check_enrich_p0 };
    { name = "attrib";
      doc = "per-net effort attribution is conserved against the global \
             counters and jobs-invariant";
      check = check_attrib };
  ]

let find name = List.find_opt (fun o -> String.equal o.name name) all

let names () = List.map (fun o -> o.name) all

let run o ctx =
  try o.check ctx
  with e ->
    Fail
      (Printf.sprintf "oracle %s raised %s on %s" o.name
         (Printexc.to_string e) ctx.circuit.Circuit.name)
