module Target_sets = Pdf_faults.Target_sets
module Fault_sim = Pdf_core.Fault_sim
module Atpg = Pdf_core.Atpg
module Ledger = Pdf_obs.Ledger
module Table = Pdf_util.Table

type t = {
  circuit : Pdf_circuit.Circuit.t;
  target_sets : Target_sets.t;
  faults : Fault_sim.prepared array;
  result : Atpg.result;
  ledger : Ledger.t;
}

let build ?(criterion = Pdf_faults.Robust.Robust) ?(n_p = 2000) ?(n_p0 = 200)
    ?(seed = Workload.default_seed) ?justify c =
  let ledger = Ledger.create () in
  let model = Pdf_paths.Delay_model.lines c in
  let ts = Target_sets.build ~criterion ~ledger c model ~n_p ~n_p0 in
  let faults = Fault_sim.prepare ~criterion c ts.Target_sets.p in
  let n0 = List.length ts.Target_sets.p0 in
  let p0 = List.init n0 Fun.id in
  let p1 = List.init (Array.length faults - n0) (fun i -> n0 + i) in
  let result = Atpg.enrich ~ledger ?justify c ~seed ~faults ~p0 ~p1 in
  { circuit = c; target_sets = ts; faults; result; ledger }

(* ------------------------------------------------------------------ *)
(* explain                                                             *)
(* ------------------------------------------------------------------ *)

let contains s sub =
  let ls = String.length s and lu = String.length sub in
  lu > 0
  &&
  let rec at i = i + lu <= ls && (String.sub s i lu = sub || at (i + 1)) in
  at 0

(* A query is either a fault id (integer) or a substring of the fault
   name (e.g. a net name on the path). *)
let matches_query query r =
  match int_of_string_opt query with
  | Some id -> Ledger.get_int r "id" = Some id
  | None -> (
    match Ledger.get_string r "fault" with
    | Some name -> contains name query
    | None -> false)

let assoc_int k kvs =
  match List.assoc_opt k kvs with Some (Ledger.I i) -> Some i | _ -> None

let assoc_string k kvs =
  match List.assoc_opt k kvs with Some (Ledger.S s) -> Some s | _ -> None

let str field r = Option.value ~default:"?" (Ledger.get_string r field)

let describe_test ledger b ~fault_id ~test_id =
  match
    Ledger.find ledger ~kind:"test" (fun tr ->
        Ledger.get_int tr "id" = Some test_id)
  with
  | [ tr ] ->
    Printf.bprintf b "  test %d: primary %s, pattern %s\n" test_id
      (str "primary_fault" tr) (str "pattern" tr);
    (match Ledger.field tr "folded" with
    | Some (Ledger.L entries) ->
      Printf.bprintf b "  %d secondary fold(s) into this test\n"
        (List.length entries);
      List.iter
        (function
          | Ledger.O kvs when assoc_int "id" kvs = Some fault_id ->
            Printf.bprintf b "  this fault folded at step %d (%s)\n"
              (Option.value ~default:(-1) (assoc_int "step" kvs))
              (Option.value ~default:"?" (assoc_string "via" kvs))
          | _ -> ())
        entries
    | _ -> ());
    (match Ledger.field tr "justify" with
    | Some (Ledger.O kvs) ->
      let geti k = Option.value ~default:0 (assoc_int k kvs) in
      Printf.bprintf b
        "  justification effort: %d runs, %d trials, %d backtracks\n"
        (geti "runs") (geti "trials") (geti "backtracks")
    | _ -> ())
  | _ -> ()

let describe_fault ledger r =
  let b = Buffer.create 128 in
  let id = Option.value ~default:(-1) (Ledger.get_int r "id") in
  Printf.bprintf b "fault #%d: %s\n" id (str "fault" r);
  (match Ledger.get_string r "disposition" with
  | Some "detected" ->
    let test_id = Option.value ~default:(-1) (Ledger.get_int r "test") in
    Printf.bprintf b "  detected by test %d, via %s\n" test_id (str "via" r);
    describe_test ledger b ~fault_id:id ~test_id
  | Some "aborted" ->
    Buffer.add_string b
      "  targeted as a primary; justification found no test (aborted)\n"
  | Some "uncovered" ->
    Printf.bprintf b "  left uncovered (last rejection: %s)\n" (str "reason" r)
  | Some other -> Printf.bprintf b "  disposition: %s\n" other
  | None -> ());
  Buffer.contents b

let describe_undetectable r =
  let b = Buffer.create 128 in
  Printf.bprintf b "fault: %s\n" (str "fault" r);
  (match Ledger.get_string r "class" with
  | Some "implication_conflict" ->
    let component =
      match Ledger.get_int r "component" with
      | Some 1 -> "first pattern"
      | Some 2 -> "intermediate value"
      | Some 3 -> "second pattern"
      | Some _ | None -> "unknown component"
    in
    Printf.bprintf b "  undetectable: implication conflict on net %s (%s)\n"
      (str "net" r) component
  | Some cls -> Printf.bprintf b "  undetectable: %s\n" cls
  | None -> ());
  Buffer.contents b

let explain t query =
  let fault_recs = Ledger.find t.ledger ~kind:"fault" (matches_query query) in
  let undet_recs =
    Ledger.find t.ledger ~kind:"undetectable" (matches_query query)
  in
  match (fault_recs, undet_recs) with
  | [], [] -> Error (Printf.sprintf "no enumerated fault matches %S" query)
  | _ ->
    Ok
      (String.concat ""
         (List.map (describe_fault t.ledger) fault_recs
         @ List.map describe_undetectable undet_recs))

(* ------------------------------------------------------------------ *)
(* why                                                                 *)
(* ------------------------------------------------------------------ *)

let effort_int r k =
  match Ledger.field r "effort" with
  | Some (Ledger.O kvs) -> Option.value ~default:0 (assoc_int k kvs)
  | _ -> 0

(* The effort breakdown and abort forensics a "fault" record carries on
   top of its disposition (DESIGN.md §14). *)
let describe_effort r =
  let b = Buffer.create 128 in
  (match Ledger.field r "effort" with
  | Some (Ledger.O kvs) ->
    let geti k = Option.value ~default:0 (assoc_int k kvs) in
    if geti "runs" = 0 then
      Buffer.add_string b
        "  no justification search ever targeted this fault\n"
    else
      Printf.bprintf b
        "  justification effort charged to this fault: %d run(s), %d \
         trials, %d backtracks, %d resim gate evals\n"
        (geti "runs") (geti "trials") (geti "backtracks")
        (geti "resim_gates")
  | _ -> ());
  (match Ledger.field r "last_conflict" with
  | Some (Ledger.O kvs) ->
    let geti k = Option.value ~default:(-1) (assoc_int k kvs) in
    Printf.bprintf b
      "  last requirement conflict: net %s (id %d, level %d); deepest \
       conflict at level %d\n"
      (Option.value ~default:"?" (assoc_string "name" kvs))
      (geti "net") (geti "level") (geti "deepest_level")
  | _ ->
    if effort_int r "runs" > 0 then
      Buffer.add_string b
        "  no requirement conflict hit while targeting this fault\n");
  Buffer.contents b

(* [why] answers the same queries as [explain] — fault id or a name
   substring — with the explanation plus the per-fault effort breakdown
   and abort forensics.  Undetectable faults were eliminated before any
   search ran, so they carry no effort and are described as by
   [explain]. *)
let why t query =
  let fault_recs = Ledger.find t.ledger ~kind:"fault" (matches_query query) in
  let undet_recs =
    Ledger.find t.ledger ~kind:"undetectable" (matches_query query)
  in
  match (fault_recs, undet_recs) with
  | [], [] -> Error (Printf.sprintf "no enumerated fault matches %S" query)
  | _ ->
    Ok
      (String.concat ""
         (List.map
            (fun r -> describe_fault t.ledger r ^ describe_effort r)
            fault_recs
         @ List.map describe_undetectable undet_recs))

(* ------------------------------------------------------------------ *)
(* report                                                              *)
(* ------------------------------------------------------------------ *)

let report t =
  let faults = Ledger.find t.ledger ~kind:"fault" (fun _ -> true) in
  let undet = Ledger.find t.ledger ~kind:"undetectable" (fun _ -> true) in
  let tests = Ledger.find t.ledger ~kind:"test" (fun _ -> true) in
  let b = Buffer.create 1024 in
  Printf.bprintf b "%s: %d tests, %d target faults, %d undetectable\n\n"
    t.circuit.Pdf_circuit.Circuit.name (List.length tests)
    (List.length faults) (List.length undet);
  let count pred l = List.length (List.filter pred l) in
  let disp d r = Ledger.get_string r "disposition" = Some d in
  let via v r = Ledger.get_string r "via" = Some v in
  let reason v r = Ledger.get_string r "reason" = Some v in
  let cls v r = Ledger.get_string r "class" = Some v in
  let summary = Table.create [ ("disposition", Table.Left); ("faults", Table.Right) ] in
  List.iter
    (fun (label, n) -> Table.add_row summary [ label; string_of_int n ])
    [
      ("detected via primary",
       count (fun r -> disp "detected" r && via "primary" r) faults);
      ("detected via folding",
       count (fun r -> disp "detected" r && via "folded" r) faults);
      ("detected accidentally",
       count (fun r -> disp "detected" r && via "accidental" r) faults);
      ("aborted (primary justification)", count (disp "aborted") faults);
      ("uncovered: requirement conflict",
       count (fun r -> disp "uncovered" r && reason "conflict" r) faults);
      ("uncovered: implied contradiction",
       count (fun r -> disp "uncovered" r && reason "implied" r) faults);
      ("uncovered: search failed",
       count (fun r -> disp "uncovered" r && reason "search" r) faults);
      ("uncovered: never targeted",
       count (fun r -> disp "uncovered" r && reason "never_targeted" r) faults);
      ("undetectable: direct conflict", count (cls "direct_conflict") undet);
      ("undetectable: implication conflict",
       count (cls "implication_conflict") undet);
    ];
  Buffer.add_string b (Table.render summary);
  Buffer.add_char b '\n';
  (* Abort/reject forensics: how much search effort each failure class
     consumed.  Lower median over plain ints — no floats, so the report
     stays byte-stable. *)
  let median = function
    | [] -> 0
    | xs ->
      let a = Array.of_list xs in
      Array.sort Int.compare a;
      a.((Array.length a - 1) / 2)
  in
  let breakdown =
    Table.create ~title:"abort/reject breakdown"
      [
        ("class", Table.Left); ("faults", Table.Right);
        ("med j.trials", Table.Right); ("max j.trials", Table.Right);
        ("med resim gates", Table.Right); ("max resim gates", Table.Right);
      ]
  in
  List.iter
    (fun (label, pred) ->
      let rs = List.filter pred faults in
      match rs with
      | [] -> Table.add_row breakdown [ label; "0"; "-"; "-"; "-"; "-" ]
      | _ ->
        let trials = List.map (fun r -> effort_int r "trials") rs in
        let resim = List.map (fun r -> effort_int r "resim_gates") rs in
        Table.add_row breakdown
          [
            label;
            string_of_int (List.length rs);
            string_of_int (median trials);
            string_of_int (List.fold_left max 0 trials);
            string_of_int (median resim);
            string_of_int (List.fold_left max 0 resim);
          ])
    [
      ("aborted (primary justification)", disp "aborted");
      ("uncovered: requirement conflict",
       fun r -> disp "uncovered" r && reason "conflict" r);
      ("uncovered: implied contradiction",
       fun r -> disp "uncovered" r && reason "implied" r);
      ("uncovered: search failed",
       fun r -> disp "uncovered" r && reason "search" r);
      ("uncovered: never targeted",
       fun r -> disp "uncovered" r && reason "never_targeted" r);
    ];
  Buffer.add_string b (Table.render breakdown);
  Buffer.add_char b '\n';
  let per_test =
    Table.create
      [
        ("test", Table.Right); ("primary fault", Table.Left);
        ("folded", Table.Right); ("j.runs", Table.Right);
        ("j.trials", Table.Right); ("j.backtracks", Table.Right);
      ]
  in
  List.iter
    (fun tr ->
      let folded =
        match Ledger.field tr "folded" with
        | Some (Ledger.L entries) -> List.length entries
        | _ -> 0
      in
      let justify k =
        match Ledger.field tr "justify" with
        | Some (Ledger.O kvs) -> Option.value ~default:0 (assoc_int k kvs)
        | _ -> 0
      in
      Table.add_row per_test
        [
          string_of_int (Option.value ~default:(-1) (Ledger.get_int tr "id"));
          str "primary_fault" tr;
          string_of_int folded;
          string_of_int (justify "runs");
          string_of_int (justify "trials");
          string_of_int (justify "backtracks");
        ])
    tests;
  Buffer.add_string b (Table.render per_test);
  Buffer.add_char b '\n';
  (* Consistency: every prepared fault id has exactly one disposition
     record (ascending), and every enumerated fault is either a target
     or was eliminated as undetectable. *)
  let n = Array.length t.faults in
  let ids_ok =
    List.length faults = n
    && List.for_all2
         (fun r i -> Ledger.get_int r "id" = Some i)
         faults
         (List.init (List.length faults) Fun.id)
  in
  let enumerated = n + List.length undet in
  Printf.bprintf b
    "%d enumerated faults = %d dispositions + %d undetectable: %s\n"
    enumerated n (List.length undet)
    (if ids_ok then "consistent (each fault has exactly one disposition)"
     else "INCONSISTENT");
  Buffer.contents b
