(* Compares two sets of served-benchmark runs, workload by metric.

     compare.exe [--benchmark FILE] A_DIR B_DIR

   A_DIR and B_DIR each hold the results files served.exe writes (one
   JSON object per run, any number of seeds).  A is the baseline, B the
   candidate.  For every end-to-end metric it prints both medians and
   quartiles and a verdict against the metric's bound in BENCHMARK.json
   (default ./BENCHMARK.json):

   - worse: B's median is worse than A's by more than the bound;
   - unresolved: a side's interquartile range, as a share of its median,
     exceeds the bound, so the runs cannot tell (unless every B run beats
     every A run);
   - better: B's median beats A's by more than A's interquartile range;
   - same: otherwise.

   Per-layer metrics (--trace 1 runs) are printed without a verdict.  Exit
   status 1 when any metric is worse or B fails a larger share of its ops
   than A; 2 on unusable input. *)

type run = {
  workload : string;
  attempted : int;
  failed : int;
  correct : bool;
  metrics : (string * float) list;
}

(* A results file: the header line, the outcome line, then one line per
   metric. *)
let load_run path =
  let lines = Results.lines path in
  let int_of line key = Option.bind (Results.field line key) int_of_string_opt in
  match
    ( List.find_map (fun l -> Results.field l "workload") lines,
      List.find_map (fun l -> Option.map (fun a -> (l, a)) (int_of l "attempted")) lines )
  with
  | Some workload, Some (outcome, attempted) ->
    Some
      {
        workload;
        attempted;
        failed = Option.value (int_of outcome "failed") ~default:attempted;
        correct = Results.field outcome "correct" = Some "true";
        metrics =
          List.filter_map
            (fun l ->
              match (Results.field l "metric", Results.float_field l "value") with
              | Some name, Some v -> Some (name, v)
              | _ -> None)
            lines;
      }
  | _ -> None

let load_dir dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.filter_map (fun f ->
         if Filename.check_suffix f ".json" && not (Filename.check_suffix f ".trace.json")
         then load_run (Filename.concat dir f)
         else None)

type bound = { lower_better : bool; bound : float }

(* BENCHMARK.json lists one metric per line: end-to-end metrics carry a
   bound, per-layer ones do not. *)
let load_bounds path =
  List.fold_right
    (fun l (bounds, layers) ->
      match (Results.field l "name", Results.field l "better") with
      | Some name, Some better -> (
        let lower_better = better = "lower" in
        match Results.float_field l "bound" with
        | Some bound -> ((name, { lower_better; bound }) :: bounds, layers)
        | None -> (bounds, (name, lower_better) :: layers))
      | _ -> (bounds, layers))
    (Results.lines path) ([], [])

let values runs workload metric =
  List.filter_map
    (fun r -> if r.workload = workload then List.assoc_opt metric r.metrics else None)
    runs

let summary xs =
  let q1, q3 = Stats.quartiles xs in
  (Stats.median xs, q1, q3)

let () =
  let benchmark = ref "BENCHMARK.json" and dirs = ref [] in
  Arg.parse
    [ ("--benchmark", Arg.Set_string benchmark, "FILE benchmark definition") ]
    (fun d -> dirs := d :: !dirs)
    "compare.exe [--benchmark FILE] A_DIR B_DIR";
  let a_dir, b_dir =
    match List.rev !dirs with
    | [ a; b ] -> (a, b)
    | _ ->
      prerr_endline "usage: compare.exe [--benchmark FILE] A_DIR B_DIR";
      exit 2
  in
  let bounds, layers =
    try load_bounds !benchmark
    with Sys_error e ->
      Printf.eprintf "compare: cannot read %s: %s\n" !benchmark e;
      exit 2
  in
  if bounds = [] then begin
    Printf.eprintf "compare: no bounded metric in %s\n" !benchmark;
    exit 2
  end;
  let a = load_dir a_dir and b = load_dir b_dir in
  if a = [] || b = [] then begin
    prerr_endline "compare: each directory needs at least one results file";
    exit 2
  end;
  let workloads =
    List.sort_uniq compare (List.map (fun r -> r.workload) (a @ b))
  in
  let regressions = ref 0 and unresolved = ref 0 in
  Printf.printf "%-11s %-26s %-32s %-32s %8s %6s  %s\n" "workload" "metric"
    "A median [q1, q3]" "B median [q1, q3]" "change" "bound" "verdict";
  let row workload metric ~lower_better ~bound =
    let va = values a workload metric and vb = values b workload metric in
    if va <> [] && vb <> [] then begin
      let ma, a1, a3 = summary va and mb, b1, b3 = summary vb in
      let worse_by = (if lower_better then mb -. ma else ma -. mb) /. Float.abs ma in
      let verdict =
        match bound with
        | None -> "info"
        | Some bound ->
          let spread m q1 q3 = (q3 -. q1) /. Float.abs m in
          let b_wins =
            List.for_all
              (fun x ->
                List.for_all (fun y -> if lower_better then x < y else x > y) va)
              vb
          in
          if (spread ma a1 a3 > bound || spread mb b1 b3 > bound) && not b_wins then begin
            incr unresolved;
            "unresolved"
          end
          else if worse_by > bound then begin
            incr regressions;
            "WORSE"
          end
          else if worse_by < 0. && Float.abs (mb -. ma) > a3 -. a1 then "better"
          else "same"
      in
      Printf.printf "%-11s %-26s %-32s %-32s %8s %6s  %s\n" workload metric
        (Printf.sprintf "%.4g [%.4g, %.4g] n=%d" ma a1 a3 (List.length va))
        (Printf.sprintf "%.4g [%.4g, %.4g] n=%d" mb b1 b3 (List.length vb))
        (if ma = 0. then "-" else Printf.sprintf "%+.1f%%" (100. *. (mb -. ma) /. Float.abs ma))
        (match bound with Some b -> Printf.sprintf "%.0f%%" (100. *. b) | None -> "-")
        verdict
    end
  in
  List.iter
    (fun workload ->
      List.iter
        (fun (metric, { lower_better; bound }) ->
          row workload metric ~lower_better ~bound:(Some bound))
        bounds;
      List.iter
        (fun (metric, lower_better) -> row workload metric ~lower_better ~bound:None)
        layers;
      let ratio runs =
        let att, fail =
          List.fold_left
            (fun (x, y) r ->
              if r.workload = workload then (x + r.attempted, y + r.failed) else (x, y))
            (0, 0) runs
        in
        if att = 0 then 0. else float fail /. float att
      in
      let ra = ratio a and rb = ratio b in
      if rb > ra then begin
        incr regressions;
        Printf.printf "%-11s %-26s %-32g %-32g %8s %6s  WORSE\n" workload "error_ratio" ra rb
          "" "+0"
      end;
      List.iter
        (fun (side, runs) ->
          if List.exists (fun r -> r.workload = workload && not r.correct) runs then begin
            incr regressions;
            Printf.printf "%-11s a run in %s reported incorrect output\n" workload side
          end)
        [ ("A", a); ("B", b) ])
    workloads;
  Printf.printf "%d worse, %d unresolved\n" !regressions !unresolved;
  if !regressions > 0 then exit 1
