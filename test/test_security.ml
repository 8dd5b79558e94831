(* The security argument of the paper, as executable properties.

   The §2.2 claim is that a write operation "should not be able to read
   the data the user is not permitted to see".  Formally: if two source
   databases present the same view to a user (they differ only in data
   the user cannot read), then every operation the user issues selects
   the same targets, reports the same outcome, and leaves the user's view
   in the same state — the user cannot distinguish the two databases.

   (The property quantifies over databases differing in unreadable TEXT
   content under a fixed policy whose rule paths do not predicate over
   content — the paper's setting; rule paths are trusted policy, not
   subject input.) *)

open Xmldoc
module P = Core.Paper_example

(* Replace the label of every text node the user cannot read. *)
let mutate_invisible doc perm replacement =
  Document.fold
    (fun (n : Node.t) acc ->
      if
        n.kind = Node.Text
        && not (Core.Perm.holds perm Core.Privilege.Read n.id)
      then Document.relabel acc n.id replacement
      else acc)
    doc doc

let ops_under_test =
  [
    Xupdate.Op.rename "/patients/franck" "francois";
    Xupdate.Op.rename "/patients/*" "someone";
    Xupdate.Op.update "//diagnosis" "cured";
    Xupdate.Op.update "/patients/*[service = 'pneumology']/diagnosis" "cured";
    Xupdate.Op.append "/patients" (Tree.element "new" []);
    Xupdate.Op.append "//diagnosis" (Tree.text "flu");
    Xupdate.Op.insert_before "/patients/*[1]" (Tree.element "first" []);
    Xupdate.Op.insert_after "//diagnosis[node()]" (Tree.element "note" []);
    Xupdate.Op.remove "//diagnosis/node()";
    Xupdate.Op.remove "/patients/*[diagnosis/text() = 'tonsillitis']";
    (* Probes that explicitly predicate over content the user may not
       see. *)
    Xupdate.Op.update "//*[text() = 'tonsillitis']" "gotcha";
    Xupdate.Op.remove "/patients/*[service/text() = 'pneumology']";
  ]

let serialize d = Xml_print.to_string ~indent:true d

let report_fingerprint (r : Core.Secure_update.report) =
  ( List.map Ordpath.to_string r.targets,
    List.map Ordpath.to_string r.relabelled,
    List.map Ordpath.to_string r.removed,
    List.map Ordpath.to_string r.inserted,
    List.map
      (fun (d : Core.Secure_update.denial) ->
        (Ordpath.to_string d.node, Core.Privilege.to_string d.privilege))
      r.denied,
    List.map (fun (id, _) -> Ordpath.to_string id) r.skipped )

let check_indistinguishable user =
  let doc1 = P.document () in
  let s1 = Core.Session.login P.policy doc1 ~user in
  let doc2 = mutate_invisible doc1 (Core.Session.perm s1) "ZZZ-SECRET" in
  let s2 = Core.Session.login P.policy doc2 ~user in
  Alcotest.(check string)
    (user ^ ": the two databases present the same view")
    (serialize (Core.Session.view s1))
    (serialize (Core.Session.view s2));
  List.iter
    (fun op ->
      let s1', r1 = Core.Secure_update.apply s1 op in
      let s2', r2 = Core.Secure_update.apply s2 op in
      let label = Format.asprintf "%s: %a" user Xupdate.Op.pp op in
      Alcotest.(check bool)
        (label ^ " — same report")
        true
        (report_fingerprint r1 = report_fingerprint r2);
      Alcotest.(check string)
        (label ^ " — same view afterwards")
        (serialize (Core.Session.view s1'))
        (serialize (Core.Session.view s2')))
    ops_under_test

let test_secretary () = check_indistinguishable P.beaufort
let test_epidemiologist () = check_indistinguishable P.richard
let test_patient () = check_indistinguishable P.robert

let test_baseline_is_distinguishable () =
  (* Sanity for the property itself: the source-write baseline DOES
     distinguish the two databases, so the mutation is meaningful. *)
  let user = P.beaufort in
  let doc1 = P.document () in
  let perm = Core.Perm.compute P.policy (Flat.of_document doc1) ~user in
  let doc2 = mutate_invisible doc1 perm "ZZZ-SECRET" in
  let probe = Xupdate.Op.rename "/patients/*[diagnosis = 'tonsillitis']" "leak" in
  let _, r1 = Baselines.Source_write.apply P.policy doc1 ~user probe in
  let _, r2 = Baselines.Source_write.apply P.policy doc2 ~user probe in
  Alcotest.(check bool) "baseline reports differ" true
    (List.length r1.targets <> List.length r2.targets)

(* Randomized form over generated hospitals: mutate the secretary's
   unreadable text, compare a probe batch. *)
let prop_indistinguishability_at_scale =
  QCheck.Test.make ~count:25 ~name:"indistinguishability on generated hospitals"
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 0 10000))
    (fun seed ->
      let config = { Workload.Gen_doc.default with patients = 12; seed } in
      let doc1 = Workload.Gen_doc.generate config in
      let policy = Workload.Gen_policy.hospital config in
      let user = "beaufort" in
      let s1 = Core.Session.login policy doc1 ~user in
      let doc2 = mutate_invisible doc1 (Core.Session.perm s1) "XXX" in
      let s2 = Core.Session.login policy doc2 ~user in
      List.for_all
        (fun op ->
          let s1', r1 = Core.Secure_update.apply s1 op in
          let s2', r2 = Core.Secure_update.apply s2 op in
          report_fingerprint r1 = report_fingerprint r2
          && String.equal
               (serialize (Core.Session.view s1'))
               (serialize (Core.Session.view s2')))
        [
          Xupdate.Op.update "//*[diagnosis = 'pneumonia']/diagnosis" "x";
          Xupdate.Op.remove "/patients/*[diagnosis/text()]";
          Xupdate.Op.rename "/patients/*[contains(diagnosis, 'itis')]" "y";
          Xupdate.Op.append "/patients" (Tree.element "extra" []);
        ])

(* Monotonicity: granting a privilege never shrinks a view; denying
   never grows it. *)
let prop_grant_monotone =
  QCheck.Test.make ~count:60 ~name:"grants grow views, denies shrink them"
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 0 10000))
    (fun seed ->
      let rng = Workload.Prng.create seed in
      let doc = P.document () in
      let paths =
        [ "//node()"; "/patients"; "//diagnosis"; "//service/node()";
          "/patients/*" ]
      in
      let _, path = Workload.Prng.pick rng paths in
      let base = P.policy in
      let granted =
        Core.Policy.grant base Core.Privilege.Read ~path ~subject:"secretary"
      in
      let denied =
        Core.Policy.deny base Core.Privilege.Read ~path ~subject:"secretary"
      in
      let nodes policy =
        let s = Core.Session.login policy doc ~user:P.beaufort in
        Document.fold
          (fun (n : Node.t) acc -> Ordpath.Set.add n.id acc)
          (Core.Session.view s) Ordpath.Set.empty
      in
      let base_nodes = nodes base in
      (* A grant can only add nodes (or upgrade RESTRICTED to plain). *)
      Ordpath.Set.subset base_nodes (nodes granted)
      &&
      (* A deny can only remove nodes or downgrade them. *)
      Ordpath.Set.subset (nodes denied) base_nodes)

let () =
  Alcotest.run "security"
    [
      ( "view indistinguishability",
        [
          Alcotest.test_case "secretary" `Quick test_secretary;
          Alcotest.test_case "epidemiologist" `Quick test_epidemiologist;
          Alcotest.test_case "patient" `Quick test_patient;
          Alcotest.test_case "baseline distinguishes (sanity)" `Quick
            test_baseline_is_distinguishable;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_indistinguishability_at_scale; prop_grant_monotone ] );
    ]
