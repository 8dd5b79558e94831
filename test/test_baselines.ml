(* Tests for the §2 baseline models and the comparison metrics. *)

open Xmldoc
module P = Core.Paper_example

let labels doc =
  List.map (fun (n : Node.t) -> n.label) (Document.nodes doc)

let perm_for user =
  Core.Perm.compute P.policy (Flat.of_document (P.document ())) ~user

(* --- deny-subtree [11] -------------------------------------------------- *)

let test_deny_subtree_secretary () =
  (* The secretary lacks read on diagnosis texts: the [11] baseline drops
     them with no placeholder. *)
  let view = Baselines.Deny_subtree.derive (P.document ()) (perm_for P.beaufort) in
  Alcotest.(check (list string)) "texts silently missing"
    [
      "/"; "patients";
      "franck"; "service"; "otolarynology"; "diagnosis";
      "robert"; "service"; "pneumology"; "diagnosis";
    ]
    (labels view)

let test_deny_subtree_epidemiologist () =
  (* Patient names are denied: the whole records disappear even though
     the services and diagnoses below are readable — the availability
     problem of [18] quoted in §2. *)
  let doc = P.document () in
  let perm = perm_for P.richard in
  let view = Baselines.Deny_subtree.derive doc perm in
  Alcotest.(check (list string)) "records lost entirely" [ "/"; "patients" ]
    (labels view);
  let lost = Baselines.Deny_subtree.lost_nodes doc perm in
  Alcotest.(check int) "8 readable nodes lost" 8 (List.length lost)

let test_deny_subtree_subset_of_core () =
  (* The [11] view is always a subset of the core view. *)
  List.iter
    (fun user ->
      let doc = P.document () in
      let perm = perm_for user in
      let baseline = Baselines.Deny_subtree.derive doc perm in
      let core = Core.View.derive (Flat.of_document doc) perm in
      Document.iter
        (fun (n : Node.t) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s in core view" (Ordpath.to_string n.id))
            true (Document.mem core n.id))
        baseline)
    [ P.beaufort; P.laporte; P.richard; P.robert ]

(* --- structure-preserving [7] ------------------------------------------- *)

let test_structure_preserving_epidemiologist () =
  (* The [7] baseline shows the denied patient names with their REAL
     labels — the leak the RESTRICTED label repairs. *)
  let doc = P.document () in
  let perm = perm_for P.richard in
  let view = Baselines.Structure_preserving.derive doc perm in
  Alcotest.(check (list string)) "names leaked"
    [
      "/"; "patients";
      "franck"; "service"; "otolarynology"; "diagnosis"; "tonsillitis";
      "robert"; "service"; "pneumology"; "diagnosis"; "pneumonia";
    ]
    (labels view);
  Alcotest.(check int) "two leaked labels" 2
    (List.length (Baselines.Structure_preserving.leaked_nodes doc perm))

let test_structure_preserving_no_leak_on_leaves () =
  (* Denied leaves have no readable descendants: nothing to preserve,
     nothing leaked. *)
  let doc = P.document () in
  let perm = perm_for P.beaufort in
  Alcotest.(check int) "no leak for the secretary" 0
    (List.length (Baselines.Structure_preserving.leaked_nodes doc perm))

(* --- source-write [10] --------------------------------------------------- *)

let covert_policy =
  Core.Policy_lang.parse
    {|role user_b
user spy isa user_b
grant update on //salary to user_b
grant update on //salary/node() to user_b
grant delete on //bonus to user_b
grant insert on //employee to user_b|}

let employees () =
  Xml_parse.of_string
    {|<employees>
        <employee><name>alice</name><salary>3500</salary><bonus>100</bonus></employee>
        <employee><name>bob</name><salary>2900</salary></employee>
      </employees>|}

let test_source_write_leaks () =
  let doc = employees () in
  let probe = Xupdate.Op.update "//employee[salary > 3000]/salary" "0" in
  let _, report = Baselines.Source_write.apply covert_policy doc ~user:"spy" probe in
  Alcotest.(check int) "selects on source" 1 (List.length report.targets);
  Alcotest.(check bool) "leak flagged" true
    (Baselines.Source_write.probe_leaks report)

let test_source_write_checks_write_privileges () =
  let doc = employees () in
  (* No update privilege on names. *)
  let _, report =
    Baselines.Source_write.apply covert_policy doc ~user:"spy"
      (Xupdate.Op.rename "//name" "hidden")
  in
  Alcotest.(check int) "denied on both names" 2 (List.length report.denied);
  Alcotest.(check int) "nothing changed" 0 (List.length report.relabelled);
  (* Delete allowed on bonus only. *)
  let d2, report2 =
    Baselines.Source_write.apply covert_policy doc ~user:"spy"
      (Xupdate.Op.remove "//bonus")
  in
  Alcotest.(check int) "bonus removed" 1 (List.length report2.removed);
  Alcotest.(check bool) "document shrank" true
    (Document.size d2 < Document.size doc)

let test_source_write_insert () =
  let doc = employees () in
  let d2, report =
    Baselines.Source_write.apply covert_policy doc ~user:"spy"
      (Xupdate.Op.append "//employee[name = 'bob']"
         (Tree.element "bonus" [ Tree.text "50" ]))
  in
  Alcotest.(check int) "inserted" 1 (List.length report.inserted);
  Alcotest.(check int) "two bonuses now" 2
    (List.length (Xpath.Eval.select_str d2 "//bonus"))

let test_secure_model_blocks_the_same_probe () =
  let doc = employees () in
  let session = Core.Session.login covert_policy doc ~user:"spy" in
  let probe = Xupdate.Op.update "//employee[salary > 3000]/salary" "0" in
  let _, report = Core.Secure_update.apply session probe in
  Alcotest.(check int) "no targets on the view" 0 (List.length report.targets)

(* --- metrics -------------------------------------------------------------- *)

let test_metrics_consistency () =
  let config = { Workload.Gen_doc.default with patients = 30; seed = 5 } in
  let doc = Workload.Gen_doc.generate config in
  let policy = Workload.Gen_policy.hospital config in
  let flat = Flat.of_document doc in
  List.iter
    (fun user ->
      let c =
        Baselines.Metrics.compare_models
          (Core.Session.login ~flat policy doc ~user)
      in
      Alcotest.(check bool) "visible <= source" true
        (c.core_visible <= c.source_nodes
         && c.deny_subtree_visible <= c.source_nodes
         && c.structure_preserving_visible <= c.source_nodes);
      Alcotest.(check bool) "deny-subtree <= readable" true
        (c.deny_subtree_visible <= c.readable_nodes);
      Alcotest.(check int) "lost = readable - deny-subtree-visible"
        c.deny_subtree_lost
        (c.readable_nodes - c.deny_subtree_visible);
      Alcotest.(check bool) "core dominates deny-subtree" true
        (c.core_visible >= c.deny_subtree_visible);
      Alcotest.(check bool) "restricted nodes are a subset of the view" true
        (c.core_restricted <= c.core_visible);
      Alcotest.(check bool) "leaks are a subset of the [7] view" true
        (c.structure_preserving_leaked <= c.structure_preserving_visible))
    ("beaufort" :: "laporte" :: "richard"
     :: [ List.nth (Workload.Gen_doc.patient_names config) 0 ])

let test_core_never_leaks_property () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:60 ~name:"core view leak count is always zero"
       (QCheck.make QCheck.Gen.(int_range 1 1000))
       (fun seed ->
         let policy =
           Workload.Gen_policy.random
             { rules = 12; deny_fraction = 0.4; seed }
         in
         let doc =
           Workload.Gen_doc.generate
             { Workload.Gen_doc.default with patients = 5; seed }
         in
         let flat = Flat.of_document doc in
         let perm = Core.Perm.compute policy flat ~user:"u" in
         Baselines.Metrics.core_leaked (Core.View.derive flat perm) perm = 0))

let () =
  Alcotest.run "baselines"
    [
      ( "deny-subtree [11]",
        [
          Alcotest.test_case "secretary" `Quick test_deny_subtree_secretary;
          Alcotest.test_case "epidemiologist" `Quick
            test_deny_subtree_epidemiologist;
          Alcotest.test_case "subset of core" `Quick
            test_deny_subtree_subset_of_core;
        ] );
      ( "structure-preserving [7]",
        [
          Alcotest.test_case "epidemiologist leak" `Quick
            test_structure_preserving_epidemiologist;
          Alcotest.test_case "no leak on leaves" `Quick
            test_structure_preserving_no_leak_on_leaves;
        ] );
      ( "source-write [10]",
        [
          Alcotest.test_case "probe leaks" `Quick test_source_write_leaks;
          Alcotest.test_case "write privileges checked" `Quick
            test_source_write_checks_write_privileges;
          Alcotest.test_case "insert" `Quick test_source_write_insert;
          Alcotest.test_case "secure model blocks probe" `Quick
            test_secure_model_blocks_the_same_probe;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "consistency" `Quick test_metrics_consistency;
          Alcotest.test_case "core never leaks" `Quick
            test_core_never_leaks_property;
        ] );
    ]
