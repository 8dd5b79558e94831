(* Integration scenario: a multi-user day at the hospital, driven through
   the public API exactly as an application would, with the shipped sample
   files.  Every step asserts both the functional outcome and the
   security-relevant non-outcome. *)

open Xmldoc

let data file = Filename.concat ".." ("examples/data/" ^ file)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* The shipped sample files parse and agree with the in-code example. *)
let test_sample_files () =
  let doc = Xml_parse.of_string (read_file (data "patients.xml")) in
  let policy = Core.Policy_lang.parse (read_file (data "hospital.acl")) in
  Alcotest.(check int) "12 rules" 12 (List.length (Core.Policy.rules policy));
  Alcotest.(check bool) "same document as Paper_example" true
    (Document.equal doc (Core.Paper_example.document ()));
  Alcotest.(check bool) "rules equal Paper_example's" true
    (List.equal Core.Rule.equal
       (Core.Policy.rules policy)
       (Core.Policy.rules Core.Paper_example.policy));
  let schema = Schema.of_string (read_file (data "hospital.dtd")) in
  Alcotest.(check (list string)) "document validates" []
    (Schema.validate ~root:"patients" schema doc);
  let ops = Xupdate.Xupdate_xml.ops_of_string (read_file (data "changes.xupdate")) in
  Alcotest.(check int) "two modifications" 2 (List.length ops)

let test_a_day_at_the_hospital () =
  let doc = Xml_parse.of_string (read_file (data "patients.xml")) in
  let policy = Core.Policy_lang.parse (read_file (data "hospital.acl")) in
  let schema = Schema.of_string (read_file (data "hospital.dtd")) in
  let login user current = Core.Session.login policy current ~user in

  (* 08:00 — the secretary registers a new patient, albert. *)
  let secretary = login "beaufort" doc in
  let secretary, r =
    Core.Secure_update.apply secretary
      (Xupdate.Op.append "/patients"
         (Tree.element "albert"
            [ Tree.element "service" [ Tree.text "cardiology" ];
              Tree.element "diagnosis" [] ]))
  in
  Alcotest.(check bool) "registration applied" true
    (Core.Secure_update.fully_applied r);
  let doc = Core.Session.source secretary in
  Alcotest.(check (list string)) "database still valid" []
    (Schema.validate ~root:"patients" schema doc);

  (* 08:05 — the secretary peeks at diagnoses: masked. *)
  Alcotest.(check int) "secretary sees masks only" 0
    (List.length
       (Core.Session.query secretary "//diagnosis/text()[. != 'RESTRICTED']"));

  (* 09:00 — the doctor poses albert's diagnosis. *)
  let doctor = login "laporte" doc in
  let doctor, r =
    Core.Secure_update.apply doctor
      (Xupdate.Op.append "/patients/albert/diagnosis" (Tree.text "arrhythmia"))
  in
  Alcotest.(check bool) "diagnosis posed" true (Core.Secure_update.fully_applied r);
  let doc = Core.Session.source doctor in

  (* 09:30 — the epidemiologist runs statistics without names. *)
  let epidemiologist = login "richard" doc in
  Alcotest.(check int) "three diagnoses countable" 3
    (List.length (Core.Session.query epidemiologist "//diagnosis/text()"));
  Alcotest.(check int) "no names visible" 0
    (List.length (Core.Session.query epidemiologist "/patients/albert"));
  Alcotest.(check int) "records are RESTRICTED" 3
    (List.length (Core.Session.query epidemiologist "/patients/RESTRICTED"));

  (* 10:00 — patient robert checks his record; sees only his own. *)
  let robert = login "robert" doc in
  Alcotest.(check int) "own diagnosis" 1
    (List.length (Core.Session.query robert "//diagnosis/text()[. = 'pneumonia']"));
  Alcotest.(check int) "nobody else's" 1
    (List.length (Core.Session.query robert "/patients/*"));

  (* 10:15 — robert tries to edit his diagnosis: denied. *)
  let _, r =
    Core.Secure_update.apply robert
      (Xupdate.Op.update "/patients/robert/diagnosis" "cured")
  in
  Alcotest.(check int) "denied" 1 (List.length r.denied);

  (* 11:00 — the doctor corrects franck's diagnosis through the XUpdate
     wire format (as a connected tool would). *)
  let doctor = login "laporte" doc in
  let ops =
    Xupdate.Xupdate_xml.ops_of_string
      {|<xupdate:modifications version="1.0" xmlns:xupdate="http://www.xmldb.org/xupdate">
          <xupdate:update select="/patients/franck/diagnosis">pharyngitis</xupdate:update>
        </xupdate:modifications>|}
  in
  let doctor, reports = Core.Secure_update.apply_all doctor ops in
  Alcotest.(check bool) "wire update applied" true
    (List.for_all Core.Secure_update.fully_applied reports);
  let doc = Core.Session.source doctor in

  (* 14:00 — audit: the three enforcement paths agree on every view. *)
  List.iter
    (fun user ->
      let flat = Flat.of_document doc in
      let session = Core.Session.login ~flat policy doc ~user in
      let view = Core.Session.view session in
      let serialize = Xml_print.to_string ~indent:true in
      Alcotest.(check string) (user ^ ": XSLT path agrees")
        (serialize view)
        (serialize (Core.Xslt_enforcer.enforce policy doc ~user));
      (* The lazy view shows every source node exactly as the view does:
         under the same label, or not at all. *)
      let lv = Core.Lazy_view.of_session flat session in
      Alcotest.(check bool) (user ^ ": lazy path agrees") true
        (Document.fold
           (fun (n : Node.t) ok ->
             ok && Core.Lazy_view.label lv n.id = Document.label view n.id)
           doc true);
      Alcotest.(check bool) (user ^ ": datalog path agrees") true
        (Core.Logic_encoding.view_parity session))
    [ "beaufort"; "laporte"; "richard"; "robert" ];

  (* 17:00 — the secretary archives franck (delete denied), then the
     doctor clears the diagnosis content instead. *)
  let secretary = login "beaufort" doc in
  let _, r =
    Core.Secure_update.apply secretary (Xupdate.Op.remove "/patients/franck")
  in
  Alcotest.(check int) "secretary cannot delete records" 1
    (List.length r.denied);
  let doctor = login "laporte" doc in
  let doctor, r =
    Core.Secure_update.apply doctor
      (Xupdate.Op.remove "/patients/franck/diagnosis/node()")
  in
  Alcotest.(check bool) "doctor clears diagnosis" true
    (Core.Secure_update.fully_applied r);
  let doc = Core.Session.source doctor in
  Alcotest.(check (list string)) "still schema-valid at end of day" []
    (Schema.validate ~root:"patients" schema doc);
  Alcotest.(check int) "franck's record survived" 1
    (List.length (Xpath.Eval.select_str doc "/patients/franck"))

let test_concurrent_sessions_see_consistent_snapshots () =
  (* Sessions are immutable values over immutable documents: an update in
     one session never mutates another session's snapshot. *)
  let doc = Core.Paper_example.document () in
  let policy = Core.Paper_example.policy in
  let doctor = Core.Session.login policy doc ~user:"laporte" in
  let secretary = Core.Session.login policy doc ~user:"beaufort" in
  let doctor2, _ =
    Core.Secure_update.apply doctor
      (Xupdate.Op.update "/patients/franck/diagnosis" "cured")
  in
  (* The secretary's old session still sees the old masked content. *)
  Alcotest.(check int) "old snapshot intact" 2
    (List.length (Core.Session.query secretary "//diagnosis/node()"));
  Alcotest.(check bool) "old source unchanged" true
    (Document.equal (Core.Session.source secretary) doc);
  Alcotest.(check bool) "new source changed" true
    (not (Document.equal (Core.Session.source doctor2) doc))

let () =
  Alcotest.run "scenario"
    [
      ( "integration",
        [
          Alcotest.test_case "sample files" `Quick test_sample_files;
          Alcotest.test_case "a day at the hospital" `Quick
            test_a_day_at_the_hospital;
          Alcotest.test_case "session snapshots" `Quick
            test_concurrent_sessions_see_consistent_snapshots;
        ] );
    ]
