(* The two-arm estimator on a fake CPU clock: each arm advances the clock
   by the cost it is given, so every reading is exact.  Its samples aim
   at 0.01 s of runs, so an arm costing 0.004 s runs 3 times a sample and
   one costing 0.012 s once. *)

module H = Bench_harness

let now = ref 0.
let clock () = !now

let arm ?(log = ref []) name cost =
  H.plain (fun () ->
      log := name :: !log;
      now := !now +. cost ())

let compare a b = H.compare ~clock ~a ~b ()

let test_mirrored () =
  let log = ref [] in
  ignore
    (compare
       (arm ~log "A" (fun () -> 0.004))
       (arm ~log "B" (fun () -> 0.012)));
  let pair =
    [ "A"; "A"; "A"; "B"; "B"; "A"; "A"; "A" ]
    @ [ "B"; "A"; "A"; "A"; "A"; "A"; "A"; "B" ]
  in
  let pairs = (List.length !log - 2) / List.length pair in
  Alcotest.(check bool) "at least 6 pairs of rounds" true (pairs >= 6);
  Alcotest.(check (list string))
    "one warm-up run each, then A,B,B,A and B,A,A,B rounds sized from the \
     last sample"
    ([ "A"; "B" ] @ List.concat (List.init pairs (fun _ -> pair)))
    (List.rev !log)

let test_outlier () =
  let runs = ref 0 in
  let b () =
    incr runs;
    if !runs = 6 then 1.2 else 0.012
  in
  let r = compare (arm "A" (fun () -> 0.004)) (arm "B" b) in
  Alcotest.(check (float 1e-6)) "median ratio" 3. r.ratio;
  Alcotest.(check (float 1e-6)) "median run of B" 0.012 r.b

let test_b_over_a () =
  let r = compare (arm "A" (fun () -> 0.02)) (arm "B" (fun () -> 0.01)) in
  Alcotest.(check (float 1e-6)) "ratio" 0.5 r.ratio;
  Alcotest.(check (float 1e-6)) "run of A" 0.02 r.a;
  Alcotest.(check (float 1e-6)) "run of B" 0.01 r.b

let () =
  Alcotest.run "bench-harness"
    [
      ( "two-arm estimator",
        [
          Alcotest.test_case "mirrored rounds" `Quick test_mirrored;
          Alcotest.test_case "one outlier round" `Quick test_outlier;
          Alcotest.test_case "reports B over A" `Quick test_b_over_a;
        ] );
    ]
