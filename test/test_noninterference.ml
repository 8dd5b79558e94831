(* Noninterference (§2.2): what a user observes depends only on that
   user's view.  For reads (axioms 15-17), each case builds pairs of
   source documents that differ only in what user U cannot read — every hidden
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

   For writes (axioms 18-25), U submits one batch on both documents of
   a pair and must get the same replies and hold the same view after;
   the premises are set out where that half begins.

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

(* ------------------------------------------------------------------ *)
(* Writes: one batch as U on both documents of a pair                  *)
(* ------------------------------------------------------------------ *)

(* The write half (§2.2, axioms 18-25): U submits the same batch of
   document ops on both documents of a pair, through the server's commit
   path, and must get the same replies -- the commit or the abort, the
   error and its op, and every report's targets and outcomes -- and then
   hold the same view.

   The model makes two promises here, and the pairs must meet their
   premises.  Decisions come from rules evaluated on the source, so U's
   privileges on the nodes it sees are part of what U observes: a pair
   is kept only when they agree on both documents (a write grant keyed
   on a label shown RESTRICTED would otherwise answer differently, and
   rightly so).  A write also re-decides what it touches, so a batch
   could reveal a hidden node by renaming an ancestor that a rule names
   or by inserting under a RESTRICTED node whose source label a rule
   names.  The write pairs therefore differ only in fully hidden nodes
   (relabelled, or a hidden subtree appended), U's read and position
   rules are downward, and U may not relabel an element carrying one of
   the labels the rules name; every batch draws its new labels from
   outside them.  Under those premises a difference in a reply or in
   the view afterwards is the §2.2 covert channel. *)

let write_cases = 48

let rule_labels = "patients" :: labels

let write_case seed =
  let doc, _ = random_case seed in
  let rng = Prng.create (seed * 7 + 1) in
  let _rng, rules = Prng.int rng 8 in
  let policy =
    Workload.Gen_policy.random ~paths:local_rule_paths
      { Workload.Gen_policy.rules = rules + 4; deny_fraction = 0.35; seed }
  in
  let label = List.nth labels (seed mod List.length labels) in
  let add p rule =
    Core.Policy.add_rule p (rule ~priority:(Core.Policy.next_priority p))
  in
  let open Core in
  let grants =
    [ Rule.accept Privilege.Read ~path:"//node()" ~subject:user;
      Rule.deny Privilege.Read ~path:("//" ^ label) ~subject:user;
      Rule.accept Privilege.Insert ~path:"//node()" ~subject:user;
      Rule.accept Privilege.Update ~path:"//node()" ~subject:user;
      Rule.accept Privilege.Delete ~path:"//visit" ~subject:user ]
    @ (if seed mod 2 = 0 then []
       else [ Rule.accept Privilege.Position ~path:("//" ^ label) ~subject:user ])
    @ List.map
        (fun l -> Rule.deny Privilege.Update ~path:("//" ^ l) ~subject:user)
        rule_labels
  in
  (doc, List.fold_left add policy grants)

type write_variant = Hide_relabel of string | Hide_append of string

let write_variant_to_string = function
  | Hide_relabel l -> Printf.sprintf "every hidden element relabelled %s" l
  | Hide_append l -> Printf.sprintf "a hidden subtree of %s elements appended" l

let write_variants =
  List.concat_map (fun l -> [ Hide_relabel l; Hide_append l ]) labels

(* What U observes of a document before writing: its view, and its
   decisions on every node of the view. *)
let observation policy doc =
  let session = Core.Session.login policy doc ~user in
  let v = Core.Session.view session in
  ( v,
    List.map
      (fun (n : Node.t) ->
        List.map
          (fun p -> Core.Session.holds session p n.id)
          Core.Privilege.all)
      (D.nodes v) )

let write_pair policy doc variant =
  let doc' =
    match variant with
    | Hide_relabel l -> (
      match unreadable_elements policy doc with
      | [] -> None
      | hidden ->
        Some (List.fold_left (fun d (n : Node.t) -> D.relabel d n.id l) doc hidden))
    | Hide_append l -> mutate policy doc (Append l)
  in
  match doc' with
  | Some doc' ->
    let v, d = observation policy doc and v', d' = observation policy doc' in
    if D.equal v v' && d = d' then Some doc' else None
  | None -> None

let write_paths =
  [ "/patients/*[1]"; "/patients/*[2]/*[1]"; "/patients/*[3]/service";
    "/patients/*[last()]"; "/patients/*[last()]/*[last()]"; "//visit[1]";
    "//visit[2]/note"; "//service/text()"; "//diagnosis[text()]";
    "/patients/*[diagnosis/text()]/service"; "//visit[note]/date";
    "//*[string() = 'routine']"; "//note/text()"; "/patients/*[2]/visit" ]

let write_fragments =
  [ Xupdate.Content.of_tree (Tree.element "extra" [ Tree.text "x" ]);
    Xupdate.Content.of_tree (Tree.text "addendum");
    (* Computed content reads the view too. *)
    Xupdate.Content.Element
      ("copy", [ Xupdate.Content.Value_of (Xpath.Parser.parse "string(.)") ]) ]

let random_batch seed =
  let rng = Prng.create (seed * 31 + 5) in
  let rng, n = Prng.int rng 3 in
  let rec go rng acc i =
    if i = n + 2 then (rng, List.rev acc)
    else
      let rng, path = Prng.pick rng write_paths in
      let rng, kind = Prng.int rng 6 in
      let rng, l = Prng.pick rng [ "zeta"; "checked"; "cured" ] in
      let rng, content = Prng.pick rng write_fragments in
      let op =
        let module Op = Xupdate.Op in
        match kind with
        | 0 -> Op.rename path l
        | 1 -> Op.update path l
        | 2 -> Op.append_content path content
        | 3 -> Op.insert_before_content path content
        | 4 -> Op.insert_after_content path content
        | _ -> Op.remove path
      in
      go rng (Core.Op.Doc op :: acc) (i + 1)
  in
  let rng, ops = go rng [] 0 in
  let _, abort = Prng.bool rng 0.5 in
  (ops, if abort then `Abort else `Tolerate)

(* U's reply to a batch as text, U's view after it, and the reports of
   a committed batch. *)
let write_reply policy doc ops on_denial =
  let serve = Core.Serve.create policy doc in
  let ids l = String.concat " " (List.map Ordpath.to_string l) in
  let outcome = Core.Serve.commit_ops ~on_denial serve ~user ops in
  let reply =
    match outcome with
    | Ok c ->
      "commit\n"
      ^ String.concat "\n"
          (List.map
             (fun (r : Core.Secure_update.report) ->
               Printf.sprintf
                 "targets [%s] relabelled [%s] removed [%s] inserted [%s] \
                  denied [%s] skipped [%s]"
                 (ids r.targets) (ids r.relabelled) (ids r.removed)
                 (ids r.inserted)
                 (String.concat "; "
                    (List.map
                       (fun (d : Core.Secure_update.denial) ->
                         Printf.sprintf "%s %s %s %s"
                           (Ordpath.to_string d.target)
                           (Ordpath.to_string d.node)
                           (Core.Privilege.to_string d.privilege)
                           d.reason)
                       r.denied))
                 (String.concat "; "
                    (List.map
                       (fun (id, why) -> Ordpath.to_string id ^ " " ^ why)
                       r.skipped)))
             c.reports)
    | Error (Core.Txn.Denied { index; _ }) -> Printf.sprintf "denied at op %d" index
    | Error (Core.Txn.Policy_denied { index; _ }) ->
      Printf.sprintf "policy denied at op %d" index
    | Error (Core.Txn.Invalid _) -> "invalid"
    | Error (Core.Txn.Failed { index; _ }) -> Printf.sprintf "failed at op %d" index
  in
  let reports = match outcome with Ok c -> Some c.reports | Error _ -> None in
  (reply, Core.Serve.view serve ~user, reports)

let batch_string ops on_denial =
  Printf.sprintf "%s [%s]"
    (match on_denial with `Abort -> "abort" | `Tolerate -> "tolerate")
    (String.concat "; "
       (List.map (fun op -> Format.asprintf "%a" Core.Op.pp op) ops))

(* The first difference U can see between the two documents: [None]
   when the replies and the views afterwards agree. *)
let write_interference policy doc doc' (ops, on_denial) =
  let reply, v, _ = write_reply policy doc ops on_denial
  and reply', v', _ = write_reply policy doc' ops on_denial in
  if reply <> reply' then
    Some (Printf.sprintf "replies differ:\n  first: %s\n  second: %s" reply reply')
  else if not (D.equal v v') then
    Some
      (Printf.sprintf "views after the commit differ:\n  first: %s\n  second: %s"
         (Xml_print.facts v) (Xml_print.facts v'))
  else None

let write_fails variant batch (doc, policy) =
  match write_pair policy doc variant with
  | None -> false
  | Some doc' -> (
    match write_interference policy doc doc' batch with
    | Some _ -> true
    | None -> false
    | exception _ -> true)

let test_write_noninterference () =
  let kept = ref 0 and targeted = ref 0 and committed = ref 0 in
  for case = 0 to write_cases - 1 do
    let seed = base_seed + case in
    let doc, policy = write_case seed in
    List.iteri
      (fun k variant ->
        match write_pair policy doc variant with
        | None -> ()
        | Some doc' -> (
          incr kept;
          let ((ops, on_denial) as batch) = random_batch ((seed * 16) + k) in
          (match write_reply policy doc ops on_denial with
           | _, _, Some reports ->
             incr committed;
             if
               List.exists
                 (fun (r : Core.Secure_update.report) -> r.targets <> [])
                 reports
             then incr targeted
           | _, _, None -> ());
          match write_interference policy doc doc' batch with
          | None -> ()
          | Some what ->
            let fails = write_fails variant batch in
            let doc_s =
              Test_support.Shrink.document
                ~fails:(fun d -> fails (d, policy))
                doc
            in
            let policy_s =
              Test_support.Shrink.policy ~fails:(fun p -> fails (doc_s, p)) policy
            in
            let text =
              Test_support.Shrink.render ~seed ~doc:doc_s ~policy:policy_s
                ~op:(batch_string ops on_denial)
                (Printf.sprintf "%s's batch interferes across the pair (%s): %s"
                   user (write_variant_to_string variant) what)
            in
            Test_support.Shrink.save ~name:"noninterference-writes" ~seed text;
            Alcotest.fail text))
      write_variants
  done;
  Alcotest.(check bool)
    (Printf.sprintf "at least 100 document pairs agree on what U observes (%d)"
       !kept)
    true (!kept >= 100);
  Alcotest.(check bool)
    (Printf.sprintf "at least 60 batches selected targets (%d)" !targeted)
    true (!targeted >= 60);
  Alcotest.(check bool)
    (Printf.sprintf "at least 30 batches committed (%d)" !committed)
    true (!committed >= 30)

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
      (* Alcotest pads group names to the longest one and truncates test
         names to fit, so a group name longer than "reads" would change
         how the read case's name is reported. *)
      ( "write",
        [
          Alcotest.test_case
            (Printf.sprintf
               "%d seeded cases x %d hidden variants, one batch each"
               write_cases (List.length write_variants))
            `Quick test_write_noninterference;
        ] );
    ]
