(* Tests of the benchmark itself: the percentile rule, the metric
   catalogue against BENCHMARK.json, due-time latency under a fake
   clock, and run-to-run identity of the deterministic metrics. *)

open Perfbench
module J = Pdf_obs.Json_text

let close a b = Float.abs (a -. b) < 1e-9

(* ---- percentile and sample-count rule ---- *)

let test_beyond () =
  Alcotest.(check int) "1000 samples: 10 beyond p99" 10 (Pct.beyond ~n:1000 990);
  Alcotest.(check int) "999 samples: 9 beyond p99" 9 (Pct.beyond ~n:999 990);
  Alcotest.(check int) "10000 samples: 10 beyond p99.9" 10 (Pct.beyond ~n:10000 999)

let tail_of n =
  Pct.tail (Array.init n (fun i -> float (i + 1)))
  |> Option.map (fun t -> (Pct.tail_label t, t.Pct.samples))

let test_tail () =
  let check what n expected =
    Alcotest.(check (option (pair string int))) what expected (tail_of n)
  in
  check "n=10000 reaches p99.9" 10000 (Some ("p99.9", 10000));
  check "n=1000 reaches p99" 1000 (Some ("p99", 1000));
  check "n=999 falls back to p95" 999 (Some ("p95", 999));
  check "n=20 reaches only p50" 20 (Some ("p50", 20));
  check "n=19 has no qualifying percentile" 19 None;
  match Pct.tail (Array.init 1000 (fun i -> float (i + 1))) with
  | Some t ->
    Alcotest.(check bool) "p99 of 1..1000 interpolates" true
      (close t.Pct.value 990.01)
  | None -> Alcotest.fail "no tail"

let test_median () =
  Alcotest.(check bool) "median of unsorted input" true
    (close (Pct.median [| 5.; 1.; 3.; 2.; 4. |]) 3.)

(* ---- names ---- *)

let test_charset () =
  List.iter
    (fun s -> Alcotest.(check bool) ("valid name " ^ s) true (Spec.valid_name s))
    [ "setup_s"; "serve.session.answer_hit_ratio"; "9lives"; "grade-s9234s" ];
  List.iter
    (fun s -> Alcotest.(check bool) ("invalid name " ^ s) false (Spec.valid_name s))
    [ ""; "_x"; ".x"; "a b"; "p99%"; "s1423*"; String.make 65 'a' ];
  List.iter
    (fun s -> Alcotest.(check bool) ("valid unit " ^ s) true (Spec.valid_unit s))
    [ "ms"; "s"; "1/s"; "%"; "count"; "Mw" ];
  List.iter
    (fun s -> Alcotest.(check bool) ("invalid unit " ^ s) false (Spec.valid_unit s))
    [ ""; "per second"; String.make 17 'a' ]

let test_catalogue () =
  let all = Spec.end_to_end @ Spec.per_layer in
  List.iter
    (fun (n, u) ->
      Alcotest.(check bool) ("name " ^ n) true (Spec.valid_name n);
      Alcotest.(check bool) ("unit of " ^ n) true (Spec.valid_unit u))
    all;
  let names = List.map fst all in
  Alcotest.(check int) "names are unique" (List.length names)
    (List.length (List.sort_uniq compare names))

(* BENCHMARK.json lists exactly the catalogue's workloads and metrics. *)
let test_benchmark_json () =
  let doc =
    match J.parse_file "../BENCHMARK.json" with
    | Ok v -> v
    | Error e -> Alcotest.fail e
  in
  let list key =
    match J.member key doc with Some (J.Arr l) -> l | _ -> Alcotest.fail key
  in
  let str key v = Option.get (Option.bind (J.member key v) J.to_str) in
  Alcotest.(check (list string)) "workloads" Spec.workloads
    (List.map (str "name") (list "workloads"));
  let metrics key = List.map (fun v -> (str "name" v, str "unit" v)) (list key) in
  Alcotest.(check (list (pair string string))) "end_to_end" Spec.end_to_end
    (metrics "end_to_end");
  Alcotest.(check (list (pair string string))) "per_layer" Spec.per_layer
    (metrics "per_layer")

(* ---- open-loop timing ---- *)

let test_due_time () =
  (* 100 requests/s from t = 10; the sender stalls until t = 10.05 *)
  let ol = Openloop.create ~start:10. ~rate:100. in
  Alcotest.(check (list int)) "only request 0 is due at start" [ 0 ]
    (Openloop.take_due ol ~now:10.);
  Openloop.complete ol 0 ~now:10.001;
  Alcotest.(check (list int)) "the stall makes five more due" [ 1; 2; 3; 4; 5 ]
    (Openloop.take_due ol ~now:10.05);
  List.iter (fun i -> Openloop.complete ol i ~now:10.06) [ 1; 2; 3; 4; 5 ];
  let lat = Openloop.latencies ol in
  Alcotest.(check bool) "request 0: 1 ms" true (close lat.(0) 0.001);
  Alcotest.(check bool) "request 1 waited out the stall from its due time" true
    (close lat.(1) 0.05);
  Alcotest.(check bool) "request 5: 10 ms after its due time" true (close lat.(5) 0.01);
  Alcotest.(check bool) "lag of request 1 is 40 ms" true
    (close (Openloop.lags ol).(1) 0.04);
  Alcotest.(check int) "nothing outstanding" 0 (Openloop.outstanding ol);
  Alcotest.check_raises "completing an unsent request"
    (Invalid_argument "Openloop.complete: unsent request") (fun () ->
      Openloop.complete ol 6 ~now:11.)

(* ---- determinism ---- *)

let deterministic =
  [ "p0_detected"; "p1_detected"; "tests" ]

let pick e2e = List.map (fun n -> (n, List.assoc n e2e)) deterministic

let small_enrich =
  { Batch.circuit = "s27"; n_p = 100; n_p0 = 20;
    justify = Pdf_core.Justify.Sim; jobs = 1; setups = 1 }

let test_enrich_identical () =
  let run () =
    let o = Batch.run_enrich small_enrich ~seconds:0. ~trace:false ~trace_out:"" in
    Alcotest.(check int) "no failed check" 0 o.Spec.failed;
    pick o.Spec.e2e
  in
  let a = run () and b = run () in
  Alcotest.(check (list (pair string (float 0.)))) "two runs agree" a b;
  (* and agree with the CLI's enrich line for the same circuit and seed *)
  let params =
    { Pdf_serve.Session.default_params with Pdf_serve.Session.n_p = 100; n_p0 = 20 }
  in
  match
    Pdf_serve.Session.enrich (Pdf_serve.Session.create ()) ~circuit:"s27" ~params
      ~coverage:false
  with
  | Error _ -> Alcotest.fail "session enrich"
  | Ok ans -> (
    match Serve_load.enrich_summary ans.Pdf_serve.Session.text with
    | None -> Alcotest.fail ans.Pdf_serve.Session.text
    | Some (p0, p, tests) ->
      Alcotest.(check (list (pair string (float 0.)))) "equals the CLI line"
        [ ("p0_detected", p0); ("p1_detected", p); ("tests", tests) ] a)

let test_grade_identical () =
  let cfg =
    { Batch.g_circuit = "s27"; g_n_p = 100; g_n_p0 = 20;
      batch_tests = Pdf_values.Word.lanes; batches = 2; passes = 2; g_setups = 1 }
  in
  let run seed =
    let o = Batch.run_grade cfg ~seed ~trace:false ~trace_out:"" in
    Alcotest.(check int) "no failed check" 0 o.Spec.failed;
    pick o.Spec.e2e
  in
  Alcotest.(check (list (pair string (float 0.)))) "same seed, same figures"
    (run 7) (run 7)

let test_traced_layers () =
  let o =
    Batch.run_enrich small_enrich ~seconds:0. ~trace:true
      ~trace_out:"test_perfbench.trace.json"
  in
  Alcotest.(check (list string)) "every per-layer metric"
    (List.map fst Spec.per_layer) (List.map fst o.Spec.layers);
  Alcotest.(check bool) "justify trials counted" true
    (List.assoc "justify.trials" o.Spec.layers > 0.);
  Alcotest.(check bool) "Chrome trace written" true
    (Sys.file_exists "test_perfbench.trace.json")

(* ---- serve input streams ---- *)

let test_serve_streams () =
  let cfg =
    { Serve_load.circuit = "b09"; light_rate = 100.; unloaded_s = 1.; heavy = 8;
      fault_ids = 50 }
  in
  let warm, light, heavy = Serve_load.streams cfg ~seed:5 in
  let warm', light', heavy' = Serve_load.streams cfg ~seed:5 in
  Alcotest.(check bool) "same seed, same streams" true
    (warm = warm' && heavy = heavy'
    && List.for_all (fun i -> light i = light' i) (List.init 300 Fun.id));
  Alcotest.(check int) "warm seeds" Serve_load.warm_seeds
    (List.length (List.sort_uniq compare warm));
  List.iter
    (fun i ->
      match light i with
      | Serve_load.Explain (w, f) | Serve_load.Why (w, f) ->
        Alcotest.(check bool) "light queries use warmed seeds" true
          (List.mem w warm && f >= 0 && f < cfg.fault_ids)
      | _ -> ())
    (List.init 300 Fun.id);
  (* fresh and repeated seeds alternate, fresh first *)
  let seeds = List.map (function Serve_load.Enrich s -> s | _ -> -1) heavy in
  List.iteri
    (fun i s ->
      let earlier = List.filteri (fun j _ -> j < i) seeds in
      Alcotest.(check bool) (Printf.sprintf "heavy %d" i) (i mod 2 = 1)
        (List.mem s earlier))
    seeds

let () =
  Alcotest.run "perfbench"
    [
      ( "percentiles",
        [
          Alcotest.test_case "samples beyond" `Quick test_beyond;
          Alcotest.test_case "highest qualifying percentile" `Quick test_tail;
          Alcotest.test_case "median" `Quick test_median;
        ] );
      ( "names",
        [
          Alcotest.test_case "charset" `Quick test_charset;
          Alcotest.test_case "catalogue" `Quick test_catalogue;
          Alcotest.test_case "BENCHMARK.json agrees" `Quick test_benchmark_json;
        ] );
      ("open loop", [ Alcotest.test_case "due-time latency" `Quick test_due_time ]);
      ("serve streams", [ Alcotest.test_case "seeded mix" `Quick test_serve_streams ]);
      ( "determinism",
        [
          Alcotest.test_case "enrich twice" `Quick test_enrich_identical;
          Alcotest.test_case "grade twice" `Quick test_grade_identical;
          Alcotest.test_case "traced run" `Quick test_traced_layers;
        ] );
    ]
