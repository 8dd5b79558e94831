(* Noninterference for reads (§2.2, axioms 15-17): what a user reads
   depends only on that user's view.  Each case builds pairs of source
   documents that differ only in what user U cannot read — every hidden
   or position-only element relabelled (the view shows the latter as
   RESTRICTED), or a hidden subtree full of queried labels appended
   under a hidden element — and keeps a pair only when the two
   View.derive results are Document.equal.  Every read path must then
   answer each query identically on both documents: the served rewrite
   (whichever plan it picks), the scan of the snapshot, the anchored run
   over the label index, and the general evaluator over the snapshot.

   The hidden rows change the posting-list lengths the read plan is
   chosen from, so the same query may be anchored on one document and
   scanned on the other; the harness counts those pairs and floors them,
   or it would prove less than it claims.  Latency may differ between
   the two documents — the model covers answers, not timing.  Failures
   shrink to a minimal (document, policy, query) triple
   (Test_support.Shrink), saved under $XMLSECU_SHRINK_DIR.

   XMLSECU_NONINTERFERENCE_SEED overrides the base seed so CI can sweep
   extra seeds without recompiling. *)

open Xmldoc
module D = Document
module Prng = Workload.Prng

let base_seed =
  match Sys.getenv_opt "XMLSECU_NONINTERFERENCE_SEED" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n -> n
    | None -> 20261018)
  | None -> 20261018

let cases = 40
let user = "u"

(* The labels the queries name; hidden content is made of them. *)
let labels = [ "service"; "diagnosis"; "visit"; "date"; "note" ]

let local_rule_paths =
  [
    "//node()"; "/patients"; "/patients/node()"; "//service"; "//diagnosis";
    "//diagnosis/node()"; "//visit"; "//visit/node()"; "//date"; "//note";
    "//service/node()"; "//text()"; "/patients/*"; "//@*";
  ]

let random_case seed =
  let rng = Prng.create seed in
  let rng, patients = Prng.int rng 5 in
  let rng, visits = Prng.int rng 3 in
  let config =
    {
      Workload.Gen_doc.patients = patients + 2;
      visits_per_patient = visits + 1;
      diagnosed_fraction = 0.7;
      seed;
    }
  in
  let doc = Workload.Gen_doc.generate config in
  let rng, use_local = Prng.bool rng 0.6 in
  let _rng, rules = Prng.int rng 8 in
  let policy_config =
    { Workload.Gen_policy.rules = rules + 4; deny_fraction = 0.35; seed }
  in
  let policy =
    if use_local then
      Workload.Gen_policy.random ~paths:local_rule_paths policy_config
    else Workload.Gen_policy.random policy_config
  in
  (* Every other case ends with a position-only label, so RESTRICTED
     elements — whose source label U must not learn — sit on the
     ancestor chains of readable nodes. *)
  let restricted = "patients" :: labels in
  let label = List.nth restricted (seed / 2 mod List.length restricted) in
  let policy =
    if seed mod 2 = 0 then policy
    else
      List.fold_left
        (fun p rule ->
          Core.Policy.add_rule p (rule ~priority:(Core.Policy.next_priority p)))
        policy
        [ Core.Rule.accept Core.Privilege.Read ~path:"//node()" ~subject:user;
          Core.Rule.deny Core.Privilege.Read ~path:("//" ^ label) ~subject:user;
          Core.Rule.accept Core.Privilege.Position ~path:("//" ^ label)
            ~subject:user ]
  in
  (doc, policy)

let queries_for seed =
  Workload.Gen_query.random ~seed ~count:3
  @ [ "//service"; "//diagnosis"; "//visit/date"; "//note";
      "//diagnosis/node()"; "/patients/*/service"; "//visit/@n";
      "//service | //note"; "//visit//text()"; "//node()"; "//RESTRICTED";
      "//visit[1]"; "//*[2]"; "//visit[note]" ]

(* ------------------------------------------------------------------ *)
(* Pairs of documents that agree on U's view                           *)
(* ------------------------------------------------------------------ *)

type variant = Relabel of string | Append of string

let variant_to_string = function
  | Relabel l ->
    Printf.sprintf "every hidden or position-only element relabelled %s" l
  | Append l ->
    Printf.sprintf "a hidden subtree of %s elements appended" l

let variants =
  List.concat_map (fun l -> [ Relabel l; Append l ]) labels

let view policy doc = Core.Session.view (Core.Session.login policy doc ~user)

(* The elements of [doc] whose label U cannot read, document order:
   the hidden ones, and — with [~restricted] — the position-only ones,
   which the view shows as RESTRICTED. *)
let unreadable_elements ?(restricted = false) policy doc =
  let v = view policy doc in
  List.filter
    (fun (n : Node.t) ->
      n.kind = Node.Element
      &&
      match D.find v n.id with
      | None -> true
      | Some m -> restricted && m.label = Core.View.restricted)
    (D.nodes doc)

(* The second document of the pair: differs from [doc] only in what U
   cannot read.  A relabel renames every hidden and every position-only
   element; an appended subtree goes under a hidden element, so axiom 16
   hides it whatever the rules say of it. *)
let mutate policy doc = function
  | Relabel l -> (
    match unreadable_elements ~restricted:true policy doc with
    | [] -> None
    | unreadable ->
      Some
        (List.fold_left
           (fun d (n : Node.t) -> D.relabel d n.id l)
           doc unreadable))
  | Append l -> (
    match unreadable_elements policy doc with
    | [] -> None
    | host :: _ ->
      let subtree =
        Tree.element l
          (List.init 30 (fun i ->
               Tree.element
                 (List.nth labels (i mod List.length labels))
                 [ Tree.element l [ Tree.text "hidden" ] ]))
      in
      Some (fst (D.append_tree doc ~parent:host.id subtree)))

(* The pair, when the second document exists and both views agree. *)
let pair policy doc variant =
  match mutate policy doc variant with
  | Some doc' when D.equal (view policy doc) (view policy doc') -> Some doc'
  | Some _ | None -> None

(* ------------------------------------------------------------------ *)
(* Every read path on one document                                     *)
(* ------------------------------------------------------------------ *)

(* (path name, answers) for every read path, plus the plan the served
   rewrite picks on this document ([None]: a scan, or a fallback). *)
let reads policy doc expr =
  let flat = Flat.of_document doc in
  let session = Core.Session.login ~flat policy doc ~user in
  let vars = Core.Session.user_vars session in
  let strings = List.map Ordpath.to_string in
  let plan = Core.Rewrite.plan expr in
  let lv = Core.Lazy_view.of_session flat session in
  let folds =
    if not (Core.Rewrite.compiled plan) then []
    else
      match Test_support.Read_plans.run expr lv with
      | scan, None -> [ ("scan", scan) ]
      | scan, Some anchored -> [ ("scan", scan); ("anchored", anchored) ]
  in
  let paths =
    [ ("served rewrite", strings (Core.Rewrite.select ~vars plan lv));
      ( "evaluator on the snapshot",
        strings (Core.Lazy_view.select ~vars lv expr) ) ]
    @ folds
  in
  (paths, Option.map Xpath.Compile.anchor_names (Core.Rewrite.anchor plan flat))

(* The first read path that answers differently from the served rewrite
   on the first document, on either document. *)
let interference (paths, _) (paths', _) =
  match paths with
  | [] -> None
  | (_, reference) :: _ ->
    List.find_map
      (fun (doc, paths) ->
        List.find_map
          (fun (name, ids) ->
            if ids = reference then None else Some (doc, name, ids))
          paths)
      [ ("first", paths); ("second", paths') ]
    |> Option.map (fun found -> (reference, found))

let fails variant (doc, policy, expr) =
  match pair policy doc variant with
  | None -> false
  | Some doc' -> (
    match
      interference (reads policy doc expr) (reads policy doc' expr)
    with
    | Some _ -> true
    | None -> false
    | exception _ -> true)

let test_noninterference () =
  let kept = ref 0 and flipped = ref 0 and checked = ref 0 in
  for case = 0 to cases - 1 do
    let seed = base_seed + case in
    let doc, policy = random_case seed in
    List.iter
      (fun variant ->
        match pair policy doc variant with
        | None -> ()
        | Some doc' ->
          incr kept;
          List.iter
            (fun q ->
              let expr = Xpath.Parser.parse_path q in
              let a = reads policy doc expr and b = reads policy doc' expr in
              incr checked;
              if snd a <> snd b then incr flipped;
              match interference a b with
              | None -> ()
              | Some (reference, (which, name, ids)) ->
                let doc_s, policy_s, expr_s =
                  Test_support.Shrink.triple ~fails:(fails variant)
                    (doc, policy, expr)
                in
                let text =
                  Test_support.Shrink.render ~seed ~doc:doc_s ~policy:policy_s
                    ~query:(Xpath.Ast.to_string expr_s)
                    (Printf.sprintf
                       "%s reads %s differently across the pair (%s):\n\
                       \  %s on the %s document: [%s]\n\
                       \  served rewrite on the first: [%s]"
                       user q (variant_to_string variant) name which
                       (String.concat "; " ids)
                       (String.concat "; " reference))
                in
                Test_support.Shrink.save ~name:"noninterference" ~seed text;
                Alcotest.fail text)
            (queries_for seed))
      variants
  done;
  Alcotest.(check bool)
    (Printf.sprintf "at least 120 document pairs agree on the view (%d)" !kept)
    true (!kept >= 120);
  Alcotest.(check bool)
    (Printf.sprintf "at least 2000 (pair, query) checks (%d)" !checked)
    true (!checked >= 2000);
  (* Hidden rows must move the plan choice, or the anchored/scan split
     was never exercised across a pair. *)
  Alcotest.(check bool)
    (Printf.sprintf "at least 250 checks where the plan differs (%d)" !flipped)
    true (!flipped >= 250)

let () =
  Alcotest.run "noninterference"
    [
      ( "reads",
        [
          Alcotest.test_case
            (Printf.sprintf
               "%d seeded cases x %d hidden variants, every read path" cases
               (List.length variants))
            `Quick test_noninterference;
        ] );
    ]
