module Bit = Pdf_values.Bit
module Req = Pdf_values.Req
module Circuit = Pdf_circuit.Circuit
module Rng = Pdf_util.Rng
module Two_pattern = Pdf_sim.Two_pattern
module Wsim = Pdf_bitsim.Wsim
module Metrics = Pdf_obs.Metrics
module Span = Pdf_obs.Span
module Attrib = Pdf_obs.Attrib

(* All justification accounting lives in the pdf_obs metrics registry
   (process-wide, monotonic); [runs]/[trials] below read these. *)
let m_runs = Metrics.counter "justify.runs"
let m_trials = Metrics.counter "justify.trials"
let m_conflicts = Metrics.counter "justify.conflicts"
let m_backtracks = Metrics.counter "justify.backtracks"

(* Effort counters behind the attribution layer (DESIGN.md §14).  All
   are semantic — defined by the search, not the engine — so they are
   byte-identical across the PDF_INCSIM/PDF_BITSIM toggles.  [trials]
   and [trial_evals] count the trials the dirty-bit schedule runs and
   their overlay gate evaluations (pure scalar code); which bits are
   dirty depends only on the nets an assignment changed, and both
   resimulation engines report exactly those (DESIGN.md §13.6).
   [resim_gates] charges every resimulation call its full-pass cost
   (cone size), whichever engine actually ran, and [conflict_hits]
   counts requirement-mismatch events wherever they are detected.  The
   per-net counterparts live in {!Pdf_obs.Attrib} sheets; the attrib
   oracle checks conservation between the two. *)
let m_trial_evals = Metrics.counter "justify.trial_evals"
let m_resim_gates = Metrics.counter "justify.resim_gates"
let m_conflict_hits = Metrics.counter "justify.conflict_hits"

let h_backtrack_depth =
  Metrics.histogram
    ~buckets:[| 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128. |]
    "justify.backtrack_depth"

(* [e_runs]/[e_trials] mirror the process-wide metric counters but are
   per-engine, so callers measuring one phase get exact figures even
   when other engines run concurrently on other domains.  An engine is
   only ever driven from one domain at a time. *)
type t = {
  circuit : Circuit.t;
  att : Attrib.sheet option;
  mutable e_runs : int;
  mutable e_trials : int;
  mutable e_backtracks : int;
  mutable e_resim_calls : int;
  mutable e_resim_gates : int;
  (* Abort forensics, maintained unconditionally (cheap scalar writes):
     the most recent requirement-conflict net with its level, and the
     deepest (highest-level) conflict net seen since the last
     [reset_forensics].  Every conflict event is detected by scalar,
     engine-independent code, so these are byte-identical across
     engines and job counts. *)
  mutable last_conflict_net : int;
  mutable last_conflict_level : int;
  mutable deepest_conflict_level : int;
  (* Trial scratch, sized once per engine and reused by every search
     (DESIGN.md §13.6).  [tval]/[tstamp] are the 3 x nets overlay: a
     value is live while its stamp equals [trial_id].  [cone_mark]
     stamps each gate of the current search's cone with [search_id];
     [queued] stamps a gate with the [wave] (one per trial component)
     that pushed it onto [heap], a min-heap of gate indices holding the
     first [heap_len] slots.  [evals] counts the current trial's gate
     evaluations. *)
  tval : Bit.t array array;
  tstamp : int array array;
  mutable trial_id : int;
  cone_mark : int array;
  mutable search_id : int;
  queued : int array;
  mutable wave : int;
  heap : int array;
  mutable heap_len : int;
  mutable evals : int;
  (* Dirty-bit schedule of the necessary-value passes (DESIGN.md §13.6).
     [support] holds each gate's PI support as a bitset of [words] ints
     (63 PIs per word), gate [gi] at [gi * words].  [clean1]/[clean3]
     are the current search's clean pattern-1/pattern-3 bits, one per
     PI: a clean bit's last two trials found no conflict and nothing
     they read has changed since, so a re-try would find none again. *)
  words : int;
  support : int array;
  clean1 : int array;
  clean3 : int array;
  (* Search scratch, shared by every search of the engine (one at a
     time): the requirement planes [r] and persistent simulation [s]
     (3 x nets), the per-PI assignments [a1]/[a3], and the incremental
     maintainer of [s], created on the first search that uses it.  All
     of it is [X] outside the footprint of the current search, which is
     recorded in [used_*] so the next search resets only those nets
     ({!make_search}).  [net_mark] stamps the nets of the current
     search's cone with [search_id]. *)
  r : Bit.t array array;
  s : Bit.t array array;
  a1 : Bit.t array;
  a3 : Bit.t array;
  mutable inc : Inc_sim.t option;
  net_mark : int array;
  mutable used_reqs : int array;
  mutable used_pis : int array;
  mutable used_gates : int array;
}

(* [gi]'s PI support: the union of its fanins' supports, filled in
   ascending gate index, which is topological. *)
let build_support c words =
  let np = c.Circuit.num_pis in
  let support = Array.make (Circuit.num_gates c * words) 0 in
  Array.iteri
    (fun gi g ->
      let base = gi * words in
      Array.iter
        (fun net ->
          if net < np then
            support.(base + (net / 63)) <-
              support.(base + (net / 63)) lor (1 lsl (net mod 63))
          else
            let fbase = (net - np) * words in
            for w = 0 to words - 1 do
              support.(base + w) <- support.(base + w) lor support.(fbase + w)
            done)
        g.Circuit.fanins)
    c.Circuit.gates;
  support

let create ?attrib circuit =
  let n = Circuit.num_nets circuit and ng = Circuit.num_gates circuit in
  let words = (circuit.Circuit.num_pis + 62) / 63 in
  {
    circuit;
    att = attrib;
    e_runs = 0;
    e_trials = 0;
    e_backtracks = 0;
    e_resim_calls = 0;
    e_resim_gates = 0;
    last_conflict_net = -1;
    last_conflict_level = -1;
    deepest_conflict_level = -1;
    tval = Array.init 3 (fun _ -> Array.make n Bit.X);
    tstamp = Array.init 3 (fun _ -> Array.make n 0);
    trial_id = 0;
    cone_mark = Array.make ng 0;
    search_id = 0;
    queued = Array.make ng 0;
    wave = 0;
    heap = Array.make ng 0;
    heap_len = 0;
    evals = 0;
    words;
    support = build_support circuit words;
    clean1 = Array.make words 0;
    clean3 = Array.make words 0;
    r = Array.init 3 (fun _ -> Array.make n Bit.X);
    s = Array.init 3 (fun _ -> Array.make n Bit.X);
    a1 = Array.make circuit.Circuit.num_pis Bit.X;
    a3 = Array.make circuit.Circuit.num_pis Bit.X;
    inc = None;
    net_mark = Array.make n 0;
    used_reqs = [||];
    used_pis = [||];
    used_gates = [||];
  }

let runs t = t.e_runs

let trials t = t.e_trials

let backtracks t = t.e_backtracks

let resim_calls t = t.e_resim_calls

let resim_gates t = t.e_resim_gates

type forensics = { last_net : int; last_level : int; deepest_level : int }

let forensics t =
  {
    last_net = t.last_conflict_net;
    last_level = t.last_conflict_level;
    deepest_level = t.deepest_conflict_level;
  }

let reset_forensics t =
  t.last_conflict_net <- -1;
  t.last_conflict_level <- -1;
  t.deepest_conflict_level <- -1

let note_conflict engine net =
  Metrics.incr m_conflict_hits;
  let level = engine.circuit.Circuit.level.(net) in
  engine.last_conflict_net <- net;
  engine.last_conflict_level <- level;
  if level > engine.deepest_conflict_level then
    engine.deepest_conflict_level <- level;
  match engine.att with
  | Some a ->
    a.Attrib.conflicts.(net) <- a.Attrib.conflicts.(net) + 1;
    a.Attrib.t_conflicts <- a.Attrib.t_conflicts + 1
  | None -> ()

exception No_test

(* Component indices: 0 = first pattern, 1 = intermediate, 2 = second. *)
let comp_of_pattern = function 1 -> 0 | 3 -> 2 | _ -> invalid_arg "pattern"

type search = {
  c : Circuit.t;
  eng : t; (* owning engine: effort accounting and forensics *)
  rng : Rng.t;
  r : Bit.t array array; (* requirements, 3 x nets; X = unconstrained *)
  req_nets : int array;
  cone_gates : int array; (* ascending gate indices, topological *)
  cone_pis : int array;
  a1 : Bit.t array; (* per PI *)
  a3 : Bit.t array;
  s : Bit.t array array; (* persistent simulation, 3 x nets *)
  inc : Inc_sim.t option; (* incremental maintainer of [s], cone-masked *)
  mutable unspecified : int;
  mutable resims : int; (* resimulation calls, for deferred attribution *)
}

let mismatch req value =
  match req, value with
  | (Bit.Zero | Bit.One), (Bit.Zero | Bit.One) -> not (Bit.equal req value)
  | (Bit.Zero | Bit.One | Bit.X), (Bit.Zero | Bit.One | Bit.X) -> false

let eval_gate_get = Pdf_sim.Logic_sim.eval_gate_get

(* Fan-in cone of the requirement nets: only these gates can influence a
   requirement, and only these PIs are worth searching.  Marks the cone's
   nets in [engine.net_mark] with the current [search_id]. *)
let compute_cone engine req_nets =
  let c = engine.circuit and id = engine.search_id in
  let mark = engine.net_mark in
  let rec visit net =
    if mark.(net) <> id then begin
      mark.(net) <- id;
      match Circuit.gate_of_net c net with
      | None -> ()
      | Some g -> Array.iter visit (c : Circuit.t).gates.(g).Circuit.fanins
    end
  in
  Array.iter visit req_nets;
  let cone_gates = ref [] in
  for g = Circuit.num_gates c - 1 downto 0 do
    if mark.(Circuit.net_of_gate c g) = id then cone_gates := g :: !cone_gates
  done;
  let cone_pis = ref [] in
  for pi = c.Circuit.num_pis - 1 downto 0 do
    if mark.(pi) = id then cone_pis := pi :: !cone_pis
  done;
  (Array.of_list !cone_gates, Array.of_list !cone_pis)

(* [net]'s persistent value changed: dirty every pattern bit a trial
   reading it could depend on.  A trial on bit (p, j) reads only the
   requirements, p's own assignment (net p) and the persistent values of
   the nets read by the cone gates in p's fanout — each of which has p
   in its support.  So clearing the support of every cone gate reading
   [net], and [net] itself when it is a PI (a requirement PI may have no
   cone reader), leaves clean only bits whose trials would repeat. *)
let changed engine net =
  let words = engine.words and sup = engine.support in
  let c1 = engine.clean1 and c3 = engine.clean3 in
  let fo = engine.circuit.Circuit.fanouts.(net) in
  for i = 0 to Array.length fo - 1 do
    let gi, _pin = fo.(i) in
    if engine.cone_mark.(gi) = engine.search_id then begin
      let base = gi * words in
      for w = 0 to words - 1 do
        let keep = lnot sup.(base + w) in
        c1.(w) <- c1.(w) land keep;
        c3.(w) <- c3.(w) land keep
      done
    end
  done;
  if net < engine.circuit.Circuit.num_pis then begin
    let w = net / 63 and keep = lnot (1 lsl (net mod 63)) in
    c1.(w) <- c1.(w) land keep;
    c3.(w) <- c3.(w) land keep
  end

(* Full-pass write of [net]'s three components, reporting a change. *)
let set_changed st net v0 v1 v2 =
  let s0 = st.s.(0) and s1 = st.s.(1) and s2 = st.s.(2) in
  if
    not
      (Bit.equal v0 s0.(net) && Bit.equal v1 s1.(net) && Bit.equal v2 s2.(net))
  then begin
    changed st.eng net;
    s0.(net) <- v0;
    s1.(net) <- v1;
    s2.(net) <- v2
  end

(* Bring [st.s] up to date with [st.a1]/[st.a3].  Incrementally when the
   engine is enabled: only cone PIs whose assignment actually changed
   are seeded and only their dirty fanout cone is re-evaluated, instead
   of the full cone pass below — same fixpoint, so the search (and every
   test it emits) is byte-identical either way.  Both engines report
   exactly the nets whose value differs from the previous fixpoint to
   {!changed}, so the dirty-bit schedule is engine-independent too. *)
let resim st =
  (* Semantic cost: a full pass over the cone, whichever engine runs.
     Charged per call so the global counter, the per-engine counter and
     (via [record_search]) the per-net attribution stay conserved and
     engine-invariant. *)
  st.resims <- st.resims + 1;
  st.eng.e_resim_calls <- st.eng.e_resim_calls + 1;
  st.eng.e_resim_gates <- st.eng.e_resim_gates + Array.length st.cone_gates;
  Metrics.add m_resim_gates (Array.length st.cone_gates);
  match st.inc with
  | Some inc ->
    for i = 0 to Array.length st.cone_pis - 1 do
      let pi = st.cone_pis.(i) in
      Inc_sim.set_pi inc pi ~v1:st.a1.(pi) ~v3:st.a3.(pi)
    done;
    Inc_sim.propagate inc;
    let log = Inc_sim.log inc in
    for i = 0 to Inc_sim.log_length inc - 1 do
      changed st.eng log.(i)
    done;
    Inc_sim.clear_log inc
  | None ->
    let eval = Pdf_sim.Logic_sim.eval_gate in
    let s0 = st.s.(0) and s1 = st.s.(1) and s2 = st.s.(2) in
    for i = 0 to Array.length st.cone_pis - 1 do
      let pi = st.cone_pis.(i) in
      let b1 = st.a1.(pi) and b3 = st.a3.(pi) in
      set_changed st pi b1 (Two_pattern.middle_of_pair b1 b3) b3
    done;
    for i = 0 to Array.length st.cone_gates - 1 do
      let gi = st.cone_gates.(i) in
      let g = st.c.Circuit.gates.(gi) in
      set_changed st (Circuit.net_of_gate st.c gi) (eval s0 g) (eval s1 g)
        (eval s2 g)
    done

(* First requirement net whose persistent value contradicts it — the
   net blamed when an assignment's resimulation reveals a conflict. *)
let conflict_net st =
  let n = Array.length st.req_nets in
  let rec go i =
    if i >= n then None
    else
      let net = st.req_nets.(i) in
      if
        mismatch st.r.(0).(net) st.s.(0).(net)
        || mismatch st.r.(1).(net) st.s.(1).(net)
        || mismatch st.r.(2).(net) st.s.(2).(net)
      then Some net
      else go (i + 1)
  in
  go 0


let satisfied_now st =
  let ok k net =
    match st.r.(k).(net) with
    | Bit.X -> true
    | (Bit.Zero | Bit.One) as v -> Bit.equal st.s.(k).(net) v
  in
  Array.for_all (fun net -> ok 0 net && ok 1 net && ok 2 net) st.req_nets

exception Trial_conflict

(* Overlay write: stamp [net]'s trial value in component [k]; a definite
   value contradicting a requirement aborts the trial. *)
let write engine st k net v =
  engine.tval.(k).(net) <- v;
  engine.tstamp.(k).(net) <- engine.trial_id;
  if mismatch st.r.(k).(net) v then begin
    note_conflict engine net;
    raise Trial_conflict
  end

(* Charge one overlay evaluation of the gate driving [out]. *)
let charge_eval engine out =
  engine.evals <- engine.evals + 1;
  match engine.att with
  | Some a ->
    a.Attrib.trial_evals.(out) <- a.Attrib.trial_evals.(out) + 1;
    a.Attrib.t_trial_evals <- a.Attrib.t_trial_evals + 1
  | None -> ()

(* Evaluate gate [gi] in component [k] over the overlay; write its output
   when it differs from the persistent value.  [true] when it wrote. *)
let eval_in_overlay engine st k gi =
  let out = Circuit.net_of_gate st.c gi in
  charge_eval engine out;
  let v =
    Pdf_sim.Logic_sim.eval_gate_overlay st.c.Circuit.gates.(gi)
      ~base:st.s.(k) ~over:engine.tval.(k) ~stamp:engine.tstamp.(k)
      ~id:engine.trial_id
  in
  if Bit.equal v st.s.(k).(out) then false
  else begin
    write engine st k out v;
    true
  end

(* The worklist: a binary min-heap of gate indices in [engine.heap]. *)
let heap_push engine gi =
  let h = engine.heap in
  let i = ref engine.heap_len in
  engine.heap_len <- !i + 1;
  while !i > 0 && h.((!i - 1) / 2) > gi do
    h.(!i) <- h.((!i - 1) / 2);
    i := (!i - 1) / 2
  done;
  h.(!i) <- gi

let heap_pop engine =
  let h = engine.heap in
  let top = h.(0) in
  let n = engine.heap_len - 1 in
  engine.heap_len <- n;
  let last = h.(n) in
  let i = ref 0 and continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    if l >= n then continue := false
    else begin
      let c = if l + 1 < n && h.(l + 1) < h.(l) then l + 1 else l in
      if h.(c) < last then begin
        h.(!i) <- h.(c);
        i := c
      end
      else continue := false
    end
  done;
  if n > 0 then h.(!i) <- last;
  top

(* Queue every cone gate reading [net], once per wave. *)
let push_fanouts engine st net =
  let fo = st.c.Circuit.fanouts.(net) in
  for i = 0 to Array.length fo - 1 do
    let gi, _pin = fo.(i) in
    if
      engine.cone_mark.(gi) = engine.search_id
      && engine.queued.(gi) <> engine.wave
    then begin
      engine.queued.(gi) <- engine.wave;
      heap_push engine gi
    end
  done

(* Propagate component [k] of a trial rooted at [pi]: pop gates in
   ascending index order — a topological order, so every fanin has
   settled when its reader pops — and push the fanouts of each net the
   overlay changes.  This evaluates exactly the cone gates with a
   stamped fanin, in the order a scan over the ascending cone would. *)
let propagate engine st k pi =
  if engine.tstamp.(k).(pi) = engine.trial_id then begin
    engine.wave <- engine.wave + 1;
    engine.heap_len <- 0;
    push_fanouts engine st pi;
    while engine.heap_len > 0 do
      let gi = heap_pop engine in
      if eval_in_overlay engine st k gi then
        push_fanouts engine st (Circuit.net_of_gate st.c gi)
    done
  end

(* Trial-assign pattern bit [j] of PI [pi] to [b] and propagate through the
   cone using an overlay (values stamped with the trial id); any definite
   value contradicting a requirement aborts with a conflict.  The
   persistent state is untouched.  Event-driven: the cost is the gates
   the trial actually evaluates, not the cone size (DESIGN.md §13.6).
   [scan] is the propagation schedule — {!propagate}, or the full-cone
   reference scan the [justify-trial] oracle compares it against. *)
let trial_with scan engine st pi j b =
  Metrics.incr m_trials;
  engine.e_trials <- engine.e_trials + 1;
  (match engine.att with
  | Some a ->
    a.Attrib.trials.(pi) <- a.Attrib.trials.(pi) + 1;
    a.Attrib.t_trials <- a.Attrib.t_trials + 1
  | None -> ());
  engine.trial_id <- engine.trial_id + 1;
  engine.evals <- 0;
  let kj = comp_of_pattern j in
  let conflicted =
    try
      let newv = Bit.of_bool b in
      if not (Bit.equal st.s.(kj).(pi) newv) then write engine st kj pi newv;
      let b1 = if j = 1 then newv else st.a1.(pi) in
      let b3 = if j = 3 then newv else st.a3.(pi) in
      let mid = Two_pattern.middle_of_pair b1 b3 in
      if not (Bit.equal st.s.(1).(pi) mid) then write engine st 1 pi mid;
      scan engine st kj pi;
      scan engine st 1 pi;
      false
    with Trial_conflict -> true
  in
  if engine.evals > 0 then Metrics.add m_trial_evals engine.evals;
  conflicted

let trial engine st pi j b = trial_with propagate engine st pi j b

(* Specify bit [j] of [pi] and bring the persistent state up to date. *)
let set_bit st pi j b =
  (match j with
  | 1 -> st.a1.(pi) <- Bit.of_bool b
  | 3 -> st.a3.(pi) <- Bit.of_bool b
  | _ -> invalid_arg "pattern");
  st.unspecified <- st.unspecified - 1;
  resim st

let assign engine st pi j b =
  set_bit st pi j b;
  match conflict_net st with
  | Some net ->
    note_conflict engine net;
    raise No_test
  | None -> ()

let clean_set engine j = if j = 1 then engine.clean1 else engine.clean3

let is_clean engine pi j =
  (clean_set engine j).(pi / 63) land (1 lsl (pi mod 63)) <> 0

(* Try both values of bit [j] of [pi] when it is unspecified and dirty,
   excluding a value whose trial conflicts; [true] when a value was
   assigned.  A bit both of whose trials pass becomes clean until an
   assignment changes a net its trials read. *)
let necessary_bit engine st pi j =
  let current = if j = 1 then st.a1.(pi) else st.a3.(pi) in
  if not (Bit.equal current Bit.X) || is_clean engine pi j then false
  else begin
    let c0 = trial engine st pi j false in
    let c1 = trial engine st pi j true in
    if c0 && c1 then raise No_test;
    (* the value whose trial did not conflict: 1 when 0 conflicted *)
    if c0 || c1 then assign engine st pi j c0
    else begin
      let clean = clean_set engine j in
      clean.(pi / 63) <- clean.(pi / 63) lor (1 lsl (pi mod 63))
    end;
    c0 || c1
  end

(* One pass over all unspecified cone bits, repeated until no new value
   is assigned.  Clean bits are skipped: their trials would pass. *)
let necessary_values engine st =
  let continue = ref true in
  while !continue do
    continue := false;
    for i = 0 to Array.length st.cone_pis - 1 do
      let pi = st.cone_pis.(i) in
      if necessary_bit engine st pi 1 then continue := true;
      if necessary_bit engine st pi 3 then continue := true
    done
  done

(* The first cone PI with exactly one pattern bit specified, or -1. *)
let first_half_specified st =
  let pis = st.cone_pis in
  let found = ref (-1) and i = ref 0 in
  while !found < 0 && !i < Array.length pis do
    let pi = pis.(!i) in
    if Bit.is_definite st.a1.(pi) <> Bit.is_definite st.a3.(pi) then
      found := pi;
    incr i
  done;
  !found

(* Decision step: prefer making a half-specified input stable (the paper's
   rule), otherwise specify a random unspecified bit randomly.  The draw
   indexes the open bits in cone-PI order, bit 3 before bit 1 of each
   PI. *)
let decide engine st =
  let half = first_half_specified st in
  if half >= 0 then begin
    if Bit.is_definite st.a1.(half) then
      assign engine st half 3 (Bit.equal st.a1.(half) Bit.One)
    else assign engine st half 1 (Bit.equal st.a3.(half) Bit.One)
  end
  else begin
    let pis = st.cone_pis in
    let count = ref 0 in
    for i = 0 to Array.length pis - 1 do
      let pi = pis.(i) in
      if Bit.equal st.a3.(pi) Bit.X then incr count;
      if Bit.equal st.a1.(pi) Bit.X then incr count
    done;
    if !count > 0 then begin
      (* [k] counts down the open bits before the drawn one. *)
      let k = ref (Rng.int st.rng !count) and i = ref (-1) and j = ref 0 in
      while !j = 0 do
        incr i;
        let pi = pis.(!i) in
        if Bit.equal st.a3.(pi) Bit.X then begin
          if !k = 0 then j := 3;
          decr k
        end;
        if !j = 0 && Bit.equal st.a1.(pi) Bit.X then begin
          if !k = 0 then j := 1;
          decr k
        end
      done;
      assign engine st pis.(!i) !j (Rng.bool st.rng)
    end
  end

(* [~random:false]: the fold order is the requirement order, which picks
   the blamed conflict net, so it must not depend on the hash seed. *)
let merge_reqs reqs =
  let acc = Hashtbl.create ~random:false 16 in
  let ok =
    List.for_all
      (fun (net, req) ->
        let current =
          match Hashtbl.find_opt acc net with Some r -> r | None -> Req.any
        in
        match Req.merge current req with
        | Some merged ->
          Hashtbl.replace acc net merged;
          true
        | None -> false)
      reqs
  in
  if ok then Some (Hashtbl.fold (fun net req l -> (net, req) :: l) acc [])
  else None

let random_pattern rng n = Array.init n (fun _ -> Rng.bool rng)

let build_test st =
  let m = st.c.Circuit.num_pis in
  let v1 = random_pattern st.rng m and v3 = random_pattern st.rng m in
  Array.iter
    (fun pi ->
      (match Bit.to_bool st.a1.(pi) with
      | Some b -> v1.(pi) <- b
      | None -> assert false);
      match Bit.to_bool st.a3.(pi) with
      | Some b -> v3.(pi) <- b
      | None -> assert false)
    st.cone_pis;
  Test_pair.create v1 v3

(* Shared state construction for both search strategies.  The engine's
   scratch is first returned to all-[X] over the previous search's
   footprint: its requirement nets, cone PIs and cone gate outputs are
   the only entries a search writes. *)
let make_search engine rng merged =
  let c = engine.circuit in
  let r = engine.r and s = engine.s in
  for k = 0 to 2 do
    let rk = r.(k) and sk = s.(k) in
    Array.iter (fun net -> rk.(net) <- Bit.X) engine.used_reqs;
    Array.iter (fun pi -> sk.(pi) <- Bit.X) engine.used_pis;
    Array.iter
      (fun gi -> sk.(Circuit.net_of_gate c gi) <- Bit.X)
      engine.used_gates
  done;
  Array.iter
    (fun pi ->
      engine.a1.(pi) <- Bit.X;
      engine.a3.(pi) <- Bit.X)
    engine.used_pis;
  let req_nets = Array.of_list (List.map fst merged) in
  List.iter
    (fun (net, (req : Req.t)) ->
      let comp_bit = function
        | Req.Any -> Bit.X
        | Req.Must b -> Bit.of_bool b
      in
      r.(0).(net) <- comp_bit req.Req.r1;
      r.(1).(net) <- comp_bit req.Req.r2;
      r.(2).(net) <- comp_bit req.Req.r3)
    merged;
  engine.search_id <- engine.search_id + 1;
  let cone_gates, cone_pis = compute_cone engine req_nets in
  Array.iter (fun gi -> engine.cone_mark.(gi) <- engine.search_id) cone_gates;
  engine.used_reqs <- req_nets;
  engine.used_pis <- cone_pis;
  engine.used_gates <- cone_gates;
  Array.fill engine.clean1 0 engine.words 0;
  Array.fill engine.clean3 0 engine.words 0;
  let inc =
    if Wsim.incsim_enabled () then begin
      let inc =
        match engine.inc with
        | Some inc -> inc
        | None ->
          let mask = Array.make (Circuit.num_gates c) false in
          let inc =
            Inc_sim.create ?attrib:engine.att ~gate_mask:mask ~log:true c ~s
          in
          engine.inc <- Some inc;
          inc
      in
      Inc_sim.restart inc ~gates:cone_gates;
      Some inc
    end
    else None
  in
  {
    c;
    eng = engine;
    rng;
    r;
    req_nets;
    cone_gates;
    cone_pis;
    a1 = engine.a1;
    a3 = engine.a3;
    s;
    inc;
    unspecified = 2 * Array.length cone_pis;
    resims = 0;
  }

(* Fold this search's incremental-simulation work into the sim.inc.*
   metrics.  The denominator is the cone size — what the full-pass
   [resim] would have evaluated per call.  When the engine carries an
   attribution sheet, the search's resimulation effort is flushed here
   in one O(cone) pass — [resims x cone] charged to every cone gate's
   output net — instead of a per-call cone walk on the hot path. *)
let record_search st =
  (match st.eng.att with
  | Some a when st.resims > 0 ->
    a.Attrib.t_resim_calls <- a.Attrib.t_resim_calls + st.resims;
    a.Attrib.t_resim_gates <-
      a.Attrib.t_resim_gates + (st.resims * Array.length st.cone_gates);
    Array.iter
      (fun gi ->
        let net = Circuit.net_of_gate st.c gi in
        a.Attrib.resim_cone.(net) <- a.Attrib.resim_cone.(net) + st.resims)
      st.cone_gates
  | Some _ | None -> ());
  match st.inc with
  | Some inc ->
    Inc_sim.record ~num_gates:(Array.length st.cone_gates) (Inc_sim.stats inc)
  | None -> ()

type complete_outcome =
  | Found of Test_pair.t
  | Proved_unsatisfiable
  | Gave_up

exception Budget_exhausted

(* Deterministic branch-and-bound search over the cone input bits. *)
let note_run engine =
  Metrics.incr m_runs;
  engine.e_runs <- engine.e_runs + 1;
  match engine.att with
  | Some a -> a.Attrib.t_runs <- a.Attrib.t_runs + 1
  | None -> ()

let run_complete ?(max_backtracks = 10_000) engine ~reqs =
  Span.with_ "justify" @@ fun () ->
  note_run engine;
  let c = engine.circuit in
  match merge_reqs reqs with
  | None ->
    Metrics.incr m_conflicts;
    Proved_unsatisfiable
  | Some [] ->
    Found
      (Test_pair.create
         (Array.make c.Circuit.num_pis false)
         (Array.make c.Circuit.num_pis false))
  | Some merged -> (
    (* The rng is never consulted: decisions are deterministic and
       non-cone bits are filled with zeros. *)
    let st = make_search engine (Rng.create 0) merged in
    let backtracks = ref 0 in
    let snapshot () = (Array.copy st.a1, Array.copy st.a3, st.unspecified) in
    let restore (a1, a3, unspecified) =
      Array.blit a1 0 st.a1 0 (Array.length a1);
      Array.blit a3 0 st.a3 0 (Array.length a3);
      st.unspecified <- unspecified;
      resim st
    in
    (* [pi] is the decision input being retracted; the backtrack is
       charged to its net in the attribution sheet. *)
    let spend depth pi =
      incr backtracks;
      engine.e_backtracks <- engine.e_backtracks + 1;
      Metrics.incr m_backtracks;
      Metrics.observe_int h_backtrack_depth depth;
      (match engine.att with
      | Some a ->
        a.Attrib.backtracks.(pi) <- a.Attrib.backtracks.(pi) + 1;
        a.Attrib.t_backtracks <- a.Attrib.t_backtracks + 1
      | None -> ());
      if !backtracks > max_backtracks then raise Budget_exhausted
    in
    (* The paper's decision preference, made deterministic: stabilise a
       half-specified input first (copy value, then its complement), else
       take the first open bit with 0 before 1. *)
    let next_decision () =
      let pi = first_half_specified st in
      if pi >= 0 then
        if Bit.is_definite st.a1.(pi) then
          let b = Bit.equal st.a1.(pi) Bit.One in
          Some (pi, 3, [ b; not b ])
        else
          let b = Bit.equal st.a3.(pi) Bit.One in
          Some (pi, 1, [ b; not b ])
      else
        Array.to_list st.cone_pis
        |> List.find_map (fun pi ->
               if Bit.equal st.a1.(pi) Bit.X then Some (pi, 1, [ false; true ])
               else if Bit.equal st.a3.(pi) Bit.X then
                 Some (pi, 3, [ false; true ])
               else None)
    in
    let build_deterministic_test () =
      let m = st.c.Circuit.num_pis in
      let v1 = Array.make m false and v3 = Array.make m false in
      Array.iter
        (fun pi ->
          (match Bit.to_bool st.a1.(pi) with
          | Some b -> v1.(pi) <- b
          | None -> assert false);
          match Bit.to_bool st.a3.(pi) with
          | Some b -> v3.(pi) <- b
          | None -> assert false)
        st.cone_pis;
      Test_pair.create v1 v3
    in
    (* DFS: returns Some test on success, None when this subtree is
       refuted. *)
    let rec solve depth =
      match
        (try
           necessary_values engine st;
           `Ok
         with No_test -> `Conflict)
      with
      | `Conflict -> None
      | `Ok -> (
        if st.unspecified = 0 then
          if satisfied_now st then Some (build_deterministic_test ())
          else None
        else
          match next_decision () with
          | None -> None
          | Some (pi, j, values) ->
            let saved = snapshot () in
            let rec try_values = function
              | [] -> None
              | b :: rest -> (
                match
                  (try
                     assign engine st pi j b;
                     `Ok
                   with No_test -> `Conflict)
                with
                | `Conflict ->
                  spend depth pi;
                  restore saved;
                  try_values rest
                | `Ok -> (
                  match solve (depth + 1) with
                  | Some test -> Some test
                  | None ->
                    spend depth pi;
                    restore saved;
                    try_values rest))
            in
            try_values values)
    in
    let outcome =
      try
        resim st;
        match conflict_net st with
        | Some net ->
          note_conflict engine net;
          Metrics.incr m_conflicts;
          Proved_unsatisfiable
        | None -> (
          match solve 0 with
          | Some test -> Found test
          | None ->
            Metrics.incr m_conflicts;
            Proved_unsatisfiable)
      with Budget_exhausted -> Gave_up
    in
    record_search st;
    outcome)

let run engine ~rng ~reqs =
  Span.with_ "justify" @@ fun () ->
  note_run engine;
  let c = engine.circuit in
  match merge_reqs reqs with
  | None ->
    Metrics.incr m_conflicts;
    None
  | Some [] ->
    Some
      (Test_pair.create
         (random_pattern rng c.Circuit.num_pis)
         (random_pattern rng c.Circuit.num_pis))
  | Some merged ->
    let st = make_search engine rng merged in
    let result =
      try
        resim st;
        (match conflict_net st with
        | Some net ->
          note_conflict engine net;
          raise No_test
        | None -> ());
        while st.unspecified > 0 do
          necessary_values engine st;
          if st.unspecified > 0 then decide engine st
        done;
        if satisfied_now st then Some (build_test st) else None
      with No_test -> None
    in
    record_search st;
    if result = None then Metrics.incr m_conflicts;
    result

module Internal = struct
  type nonrec search = search

  let prepare engine ~reqs =
    match merge_reqs reqs with
    | None | Some [] -> None
    | Some merged ->
      let st = make_search engine (Rng.create 0) merged in
      resim st;
      Some st

  let cone_pis st = st.cone_pis

  let assign = set_bit

  let trial st pi j b = trial st.eng st pi j b

  let necessary_values st =
    match necessary_values st.eng st with
    | () -> true
    | exception No_test -> false

  let clean st pi j = is_clean st.eng pi j

  let specified st pi j =
    Bit.is_definite (if j = 1 then st.a1.(pi) else st.a3.(pi))

  (* The schedule the worklist replaced: scan the whole ascending cone
     and evaluate every gate with a fanin stamped by this trial, through
     the closure-based evaluator. *)
  let reference_scan engine st k _pi =
    let id = engine.trial_id in
    let tv = engine.tval.(k) and ts = engine.tstamp.(k) and sv = st.s.(k) in
    let read net = if ts.(net) = id then tv.(net) else sv.(net) in
    Array.iter
      (fun gi ->
        let g = st.c.Circuit.gates.(gi) in
        if Array.exists (fun fanin -> ts.(fanin) = id) g.Circuit.fanins
        then begin
          let out = Circuit.net_of_gate st.c gi in
          charge_eval engine out;
          let v = eval_gate_get g read in
          if not (Bit.equal v sv.(out)) then write engine st k out v
        end)
      st.cone_gates

  let reference_trial st pi j b = trial_with reference_scan st.eng st pi j b

  let trial_evals st = st.eng.evals

  let overlay st =
    let e = st.eng in
    let acc = ref [] in
    for k = 2 downto 0 do
      for net = Circuit.num_nets st.c - 1 downto 0 do
        if e.tstamp.(k).(net) = e.trial_id then
          acc := (k, net, e.tval.(k).(net)) :: !acc
      done
    done;
    !acc
end

(* ------------------------------------------------------------------ *)
(* Backend selection and the dispatching engine                        *)
(* ------------------------------------------------------------------ *)

type kind = Sim | Podem | Portfolio

let kind_name = function
  | Sim -> "sim"
  | Podem -> "podem"
  | Portfolio -> "portfolio"

let kind_of_name s =
  match String.lowercase_ascii s with
  | "sim" | "simulation" -> Some Sim
  | "podem" -> Some Podem
  | "portfolio" -> Some Portfolio
  | _ -> None

let default_kind () =
  match Sys.getenv_opt "PDF_JUSTIFY" with
  | None | Some "" -> Sim
  | Some s -> (
    match kind_of_name s with
    | Some k -> k
    | None ->
      invalid_arg
        (Printf.sprintf "PDF_JUSTIFY=%S: expected sim, podem or portfolio" s))

module Engine = struct
  (* Alias the simulation engine's type before [t] is shadowed below. *)
  type sim_engine = t

  type member_impl = Sim_member of sim_engine | Podem_member of Podem.t

  (* Every member charges the run's attribution sheet directly: members
     run one after another on the calling domain. *)
  type member = { label : string; impl : member_impl }

  type t = {
    kind : kind;
    members : member array; (* priority chain *)
    mutable last_winner : string;
  }

  (* Portfolio chain: the structural engine first (deterministic,
     complete up to budget), then the paper's simulation engine, then
     [restarts] random-restart simulation members. *)
  let restarts = 2

  let create ?attrib ?(kind = default_kind ()) circuit =
    let sim label = { label; impl = Sim_member (create ?attrib circuit) } in
    let podem () =
      { label = "podem"; impl = Podem_member (Podem.create ?attrib circuit) }
    in
    let members =
      match kind with
      | Sim -> [ sim "sim" ]
      | Podem -> [ podem () ]
      | Portfolio ->
        podem () :: sim "sim"
        :: List.init restarts (fun i -> sim (Printf.sprintf "sim-r%d" (i + 1)))
    in
    { kind; members = Array.of_list members; last_winner = "" }

  let kind t = t.kind

  let run_member m ~rng ~reqs =
    match m.impl with
    | Sim_member e -> run e ~rng ~reqs
    | Podem_member p -> (
      match Podem.run p ~reqs with
      | Podem.Found test -> Some test
      | Podem.Proved_unsatisfiable | Podem.Gave_up -> None)

  (* Walk the chain in order and stop at the first member that finds a
     test.  A lone member consumes the caller's stream directly, so the
     pure backends stay bit-identical to a bare engine; a longer chain
     draws exactly one value per call and seeds member [i] from that draw
     and [i], so a member's seed does not depend on which members ran
     before it. *)
  let run t ~rng ~reqs =
    let n = Array.length t.members in
    let member_rng =
      if n = 1 then Fun.const rng
      else
        let base = Int64.to_int (Rng.next rng) land max_int in
        fun i -> Rng.create (base lxor (0x9e3779b9 * (i + 1)))
    in
    let rec go i =
      if i >= n then None
      else
        let m = t.members.(i) in
        match run_member m ~rng:(member_rng i) ~reqs with
        | Some _ as found ->
          t.last_winner <- m.label;
          found
        | None -> go (i + 1)
    in
    go 0

  let winner t = t.last_winner

  let sum t f_sim f_podem =
    Array.fold_left
      (fun acc m ->
        acc
        +
        match m.impl with
        | Sim_member e -> f_sim e
        | Podem_member p -> f_podem p)
      0 t.members

  let runs t = sum t runs Podem.runs

  (* The structural engine's unit of search work is the PI decision;
     it is reported in the [trials] column so per-fault effort stays
     one schema across backends (DESIGN.md §15). *)
  let trials t = sum t trials Podem.decisions

  let backtracks t = sum t backtracks Podem.backtracks

  let resim_gates t = sum t resim_gates Podem.imply_gates

  let aborts t = sum t (fun _ -> 0) Podem.aborts

  let member_forensics m =
    match m.impl with
    | Sim_member e -> forensics e
    | Podem_member p ->
      let f = Podem.forensics p in
      {
        last_net = f.Podem.last_net;
        last_level = f.Podem.last_level;
        deepest_level = f.Podem.deepest_level;
      }

  (* Deterministic combination: the deepest conflict level over the
     members, and the last-conflict net of the first member (in chain
     order) that recorded one.  Members the chain never reached since
     the last reset recorded nothing, so only members that ran count. *)
  let forensics t =
    let fs = Array.map member_forensics t.members in
    let deepest =
      Array.fold_left (fun acc f -> max acc f.deepest_level) (-1) fs
    in
    let last =
      let rec find i =
        if i >= Array.length fs then
          { last_net = -1; last_level = -1; deepest_level = deepest }
        else if fs.(i).last_net >= 0 then fs.(i)
        else find (i + 1)
      in
      find 0
    in
    { last with deepest_level = deepest }

  let reset_forensics t =
    Array.iter
      (fun m ->
        match m.impl with
        | Sim_member e -> reset_forensics e
        | Podem_member p -> Podem.reset_forensics p)
      t.members
end
