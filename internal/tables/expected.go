package tables

// Expected content of every table in the paper, in the rendering of
// RenderRelation / translate.Row.String. Each literal's first line is the
// header; subsequent lines are tuples (order-insensitive for relations,
// order-sensitive for operation matrices).
//
// Where the supplied paper text is internally inconsistent or OCR-damaged,
// the literals follow the paper's own base relations and algebra. Both such
// corrections are described in EXPERIMENTS.md § Paper fidelity: the MAJ
// value of alumnus 567 is "MGT" per the ALUMNUS relation, though Tables
// 4/5/7/8 misprint "MIT"; Table A7 is stated before the join attributes'
// origins are folded into the intermediate tags, though Table A4 — the same
// kind of step — folds them immediately; we fold immediately in both, which
// leaves A8 and A9 identical to the paper's.

// Table1 is the Polygen Operation Matrix for the example expression.
const Table1 = `
R(1) | Select | PALUMNUS | DEGREE | = | "MBA" | nil
R(2) | Join | R(1) | AID# | = | AID# | PCAREER
R(3) | Join | R(2) | ONAME | = | ONAME | PORGANIZATION
R(4) | Restrict | R(3) | CEO | = | ANAME | nil
R(5) | Project | R(4) | ONAME, CEO | nil | nil | nil
`

// Table2 is the half-processed IOM after pass one.
const Table2 = `
R(1) | Select | ALUMNUS | DEG | = | "MBA" | nil | AD
R(2) | Join | R(1) | AID# | = | AID# | PCAREER | PQP
R(3) | Join | R(2) | ONAME | = | ONAME | PORGANIZATION | PQP
R(4) | Restrict | R(3) | CEO | = | ANAME | nil | PQP
R(5) | Project | R(4) | ONAME, CEO | nil | nil | nil | PQP
`

// Table3 is the Intermediate Operation Matrix after pass two.
const Table3 = `
R(1) | Select | ALUMNUS | DEG | = | "MBA" | nil | AD
R(2) | Retrieve | CAREER | nil | nil | nil | nil | AD
R(3) | Join | R(1) | AID# | = | AID# | R(2) | PQP
R(4) | Retrieve | BUSINESS | nil | nil | nil | nil | AD
R(5) | Retrieve | CORPORATION | nil | nil | nil | nil | PD
R(6) | Retrieve | FIRM | nil | nil | nil | nil | CD
R(7) | Merge | R(4), R(5), R(6) | nil | nil | nil | nil | PQP
R(8) | Join | R(3) | ONAME | = | ONAME | R(7) | PQP
R(9) | Restrict | R(8) | CEO | = | ANAME | nil | PQP
R(10) | Project | R(9) | ONAME, CEO | nil | nil | nil | PQP
`

// Table4 is R(1): ALUMNUS[DEG = "MBA"] executed at AD and tagged.
const Table4 = `
AID# | ANAME | DEG | MAJ
012, {AD}, {} | John McCauley, {AD}, {} | MBA, {AD}, {} | IS, {AD}, {}
123, {AD}, {} | Bob Swanson, {AD}, {} | MBA, {AD}, {} | MGT, {AD}, {}
234, {AD}, {} | Stu Madnick, {AD}, {} | MBA, {AD}, {} | IS, {AD}, {}
456, {AD}, {} | Dave Horton, {AD}, {} | MBA, {AD}, {} | IS, {AD}, {}
567, {AD}, {} | John Reed, {AD}, {} | MBA, {AD}, {} | MGT, {AD}, {}
`

// Table5 is R(3): the join of R(1) with the retrieved CAREER relation.
const Table5 = `
AID# | ANAME | DEG | MAJ | BNAME | POS
012, {AD}, {AD} | John McCauley, {AD}, {AD} | MBA, {AD}, {AD} | IS, {AD}, {AD} | Citicorp, {AD}, {AD} | MIS Director, {AD}, {AD}
123, {AD}, {AD} | Bob Swanson, {AD}, {AD} | MBA, {AD}, {AD} | MGT, {AD}, {AD} | Genentech, {AD}, {AD} | CEO, {AD}, {AD}
234, {AD}, {AD} | Stu Madnick, {AD}, {AD} | MBA, {AD}, {AD} | IS, {AD}, {AD} | Langley Castle, {AD}, {AD} | CEO, {AD}, {AD}
456, {AD}, {AD} | Dave Horton, {AD}, {AD} | MBA, {AD}, {AD} | IS, {AD}, {AD} | Ford, {AD}, {AD} | Manager, {AD}, {AD}
567, {AD}, {AD} | John Reed, {AD}, {AD} | MBA, {AD}, {AD} | MGT, {AD}, {AD} | Citicorp, {AD}, {AD} | CEO, {AD}, {AD}
234, {AD}, {AD} | Stu Madnick, {AD}, {AD} | MBA, {AD}, {AD} | IS, {AD}, {AD} | MIT, {AD}, {AD} | Professor, {AD}, {AD}
`

// Table6 is R(7): Merge(BUSINESS, CORPORATION, FIRM) — identical to TableA9.
const Table6 = `
ONAME | INDUSTRY | HEADQUARTERS | CEO
Langley Castle, {AD, CD}, {AD, CD} | Hotel, {AD}, {AD, CD} | MA, {CD}, {AD, CD} | Stu Madnick, {CD}, {AD, CD}
IBM, {AD, PD, CD}, {AD, PD, CD} | High Tech, {AD, PD}, {AD, PD, CD} | NY, {PD, CD}, {AD, PD, CD} | John Ackers, {CD}, {AD, PD, CD}
MIT, {AD}, {AD} | Education, {AD}, {AD} | nil, {}, {AD} | nil, {}, {AD}
CitiCorp, {AD, PD, CD}, {AD, PD, CD} | Banking, {AD, PD}, {AD, PD, CD} | NY, {PD, CD}, {AD, PD, CD} | John Reed, {CD}, {AD, PD, CD}
Oracle, {AD, PD, CD}, {AD, PD, CD} | High Tech, {AD, PD}, {AD, PD, CD} | CA, {PD, CD}, {AD, PD, CD} | Lawrence Ellison, {CD}, {AD, PD, CD}
Ford, {AD, CD}, {AD, CD} | Automobile, {AD}, {AD, CD} | MI, {CD}, {AD, CD} | Donald Peterson, {CD}, {AD, CD}
DEC, {AD, PD, CD}, {AD, PD, CD} | High Tech, {AD, PD}, {AD, PD, CD} | MA, {PD, CD}, {AD, PD, CD} | Ken Olsen, {CD}, {AD, PD, CD}
BP, {AD}, {AD} | Energy, {AD}, {AD} | nil, {}, {AD} | nil, {}, {AD}
Genentech, {AD, CD}, {AD, CD} | High Tech, {AD}, {AD, CD} | CA, {CD}, {AD, CD} | Bob Swanson, {CD}, {AD, CD}
Apple, {PD, CD}, {PD, CD} | High Tech, {PD}, {PD, CD} | CA, {PD, CD}, {PD, CD} | John Sculley, {CD}, {PD, CD}
AT&T, {PD, CD}, {PD, CD} | High Tech, {PD}, {PD, CD} | NY, {PD, CD}, {PD, CD} | Robert Allen, {CD}, {PD, CD}
Banker's Trust, {PD, CD}, {PD, CD} | Finance, {PD}, {PD, CD} | NY, {PD, CD}, {PD, CD} | Charles Sanford, {CD}, {PD, CD}
`

// Table7 is R(8): the join of R(3) with R(7) on ONAME.
const Table7 = `
AID# | ANAME | DEG | MAJ | ONAME | POS | INDUSTRY | HEADQUARTERS | CEO
012, {AD}, {AD, PD, CD} | John McCauley, {AD}, {AD, PD, CD} | MBA, {AD}, {AD, PD, CD} | IS, {AD}, {AD, PD, CD} | Citicorp, {AD, PD, CD}, {AD, PD, CD} | MIS Director, {AD}, {AD, PD, CD} | Banking, {AD, PD}, {AD, PD, CD} | NY, {PD, CD}, {AD, PD, CD} | John Reed, {CD}, {AD, PD, CD}
123, {AD}, {AD, CD} | Bob Swanson, {AD}, {AD, CD} | MBA, {AD}, {AD, CD} | MGT, {AD}, {AD, CD} | Genentech, {AD, CD}, {AD, CD} | CEO, {AD}, {AD, CD} | High Tech, {AD}, {AD, CD} | CA, {CD}, {AD, CD} | Bob Swanson, {CD}, {AD, CD}
234, {AD}, {AD, CD} | Stu Madnick, {AD}, {AD, CD} | MBA, {AD}, {AD, CD} | IS, {AD}, {AD, CD} | Langley Castle, {AD, CD}, {AD, CD} | CEO, {AD}, {AD, CD} | Hotel, {AD}, {AD, CD} | MA, {CD}, {AD, CD} | Stu Madnick, {CD}, {AD, CD}
456, {AD}, {AD, CD} | Dave Horton, {AD}, {AD, CD} | MBA, {AD}, {AD, CD} | IS, {AD}, {AD, CD} | Ford, {AD, CD}, {AD, CD} | Manager, {AD}, {AD, CD} | Automobile, {AD}, {AD, CD} | MI, {CD}, {AD, CD} | Donald Peterson, {CD}, {AD, CD}
567, {AD}, {AD, PD, CD} | John Reed, {AD}, {AD, PD, CD} | MBA, {AD}, {AD, PD, CD} | MGT, {AD}, {AD, PD, CD} | Citicorp, {AD, PD, CD}, {AD, PD, CD} | CEO, {AD}, {AD, PD, CD} | Banking, {AD, PD}, {AD, PD, CD} | NY, {PD, CD}, {AD, PD, CD} | John Reed, {CD}, {AD, PD, CD}
234, {AD}, {AD} | Stu Madnick, {AD}, {AD} | MBA, {AD}, {AD} | IS, {AD}, {AD} | MIT, {AD}, {AD} | Professor, {AD}, {AD} | Education, {AD}, {AD} | nil, {}, {AD} | nil, {}, {AD}
`

// Table8 is R(9): Table 7 restricted to CEO = ANAME.
const Table8 = `
AID# | ANAME | DEG | MAJ | ONAME | POS | INDUSTRY | HEADQUARTERS | CEO
123, {AD}, {AD, CD} | Bob Swanson, {AD}, {AD, CD} | MBA, {AD}, {AD, CD} | MGT, {AD}, {AD, CD} | Genentech, {AD, CD}, {AD, CD} | CEO, {AD}, {AD, CD} | High Tech, {AD}, {AD, CD} | CA, {CD}, {AD, CD} | Bob Swanson, {CD}, {AD, CD}
234, {AD}, {AD, CD} | Stu Madnick, {AD}, {AD, CD} | MBA, {AD}, {AD, CD} | IS, {AD}, {AD, CD} | Langley Castle, {AD, CD}, {AD, CD} | CEO, {AD}, {AD, CD} | Hotel, {AD}, {AD, CD} | MA, {CD}, {AD, CD} | Stu Madnick, {CD}, {AD, CD}
567, {AD}, {AD, PD, CD} | John Reed, {AD}, {AD, PD, CD} | MBA, {AD}, {AD, PD, CD} | MGT, {AD}, {AD, PD, CD} | Citicorp, {AD, PD, CD}, {AD, PD, CD} | CEO, {AD}, {AD, PD, CD} | Banking, {AD, PD}, {AD, PD, CD} | NY, {PD, CD}, {AD, PD, CD} | John Reed, {CD}, {AD, PD, CD}
`

// Table9 is R(10): the final composite answer with source tags.
const Table9 = `
ONAME | CEO
Genentech, {AD, CD}, {AD, CD} | Bob Swanson, {CD}, {AD, CD}
Langley Castle, {AD, CD}, {AD, CD} | Stu Madnick, {CD}, {AD, CD}
Citicorp, {AD, PD, CD}, {AD, PD, CD} | John Reed, {CD}, {AD, PD, CD}
`

// TableA1 is the retrieved BUSINESS relation.
const TableA1 = `
BNAME | IND
Langley Castle, {AD}, {} | Hotel, {AD}, {}
IBM, {AD}, {} | High Tech, {AD}, {}
MIT, {AD}, {} | Education, {AD}, {}
CitiCorp, {AD}, {} | Banking, {AD}, {}
Oracle, {AD}, {} | High Tech, {AD}, {}
Ford, {AD}, {} | Automobile, {AD}, {}
DEC, {AD}, {} | High Tech, {AD}, {}
BP, {AD}, {} | Energy, {AD}, {}
Genentech, {AD}, {} | High Tech, {AD}, {}
`

// TableA2 is the retrieved CORPORATION relation.
const TableA2 = `
CNAME | TRADE | STATE
Apple, {PD}, {} | High Tech, {PD}, {} | CA, {PD}, {}
Oracle, {PD}, {} | High Tech, {PD}, {} | CA, {PD}, {}
AT&T, {PD}, {} | High Tech, {PD}, {} | NY, {PD}, {}
IBM, {PD}, {} | High Tech, {PD}, {} | NY, {PD}, {}
Citicorp, {PD}, {} | Banking, {PD}, {} | NY, {PD}, {}
DEC, {PD}, {} | High Tech, {PD}, {} | MA, {PD}, {}
Banker's Trust, {PD}, {} | Finance, {PD}, {} | NY, {PD}, {}
`

// TableA3 is the retrieved FIRM relation, with HQ domain-mapped to states.
const TableA3 = `
FNAME | CEO | HQ
AT&T, {CD}, {} | Robert Allen, {CD}, {} | NY, {CD}, {}
Langley Castle, {CD}, {} | Stu Madnick, {CD}, {} | MA, {CD}, {}
Banker's Trust, {CD}, {} | Charles Sanford, {CD}, {} | NY, {CD}, {}
CitiCorp, {CD}, {} | John Reed, {CD}, {} | NY, {CD}, {}
Ford, {CD}, {} | Donald Peterson, {CD}, {} | MI, {CD}, {}
IBM, {CD}, {} | John Ackers, {CD}, {} | NY, {CD}, {}
Apple, {CD}, {} | John Sculley, {CD}, {} | CA, {CD}, {}
Oracle, {CD}, {} | Lawrence Ellison, {CD}, {} | CA, {CD}, {}
DEC, {CD}, {} | Ken Olsen, {CD}, {} | MA, {CD}, {}
Genentech, {CD}, {} | Bob Swanson, {CD}, {} | CA, {CD}, {}
`

// TableA4 is the outer join of A1 and A2 on BNAME = CNAME.
const TableA4 = `
BNAME | IND | CNAME | TRADE | STATE
Langley Castle, {AD}, {AD} | Hotel, {AD}, {AD} | nil, {}, {AD} | nil, {}, {AD} | nil, {}, {AD}
IBM, {AD}, {AD, PD} | High Tech, {AD}, {AD, PD} | IBM, {PD}, {AD, PD} | High Tech, {PD}, {AD, PD} | NY, {PD}, {AD, PD}
MIT, {AD}, {AD} | Education, {AD}, {AD} | nil, {}, {AD} | nil, {}, {AD} | nil, {}, {AD}
CitiCorp, {AD}, {AD, PD} | Banking, {AD}, {AD, PD} | Citicorp, {PD}, {AD, PD} | Banking, {PD}, {AD, PD} | NY, {PD}, {AD, PD}
Oracle, {AD}, {AD, PD} | High Tech, {AD}, {AD, PD} | Oracle, {PD}, {AD, PD} | High Tech, {PD}, {AD, PD} | CA, {PD}, {AD, PD}
Ford, {AD}, {AD} | Automobile, {AD}, {AD} | nil, {}, {AD} | nil, {}, {AD} | nil, {}, {AD}
DEC, {AD}, {AD, PD} | High Tech, {AD}, {AD, PD} | DEC, {PD}, {AD, PD} | High Tech, {PD}, {AD, PD} | MA, {PD}, {AD, PD}
BP, {AD}, {AD} | Energy, {AD}, {AD} | nil, {}, {AD} | nil, {}, {AD} | nil, {}, {AD}
Genentech, {AD}, {AD} | High Tech, {AD}, {AD} | nil, {}, {AD} | nil, {}, {AD} | nil, {}, {AD}
nil, {}, {PD} | nil, {}, {PD} | Apple, {PD}, {PD} | High Tech, {PD}, {PD} | CA, {PD}, {PD}
nil, {}, {PD} | nil, {}, {PD} | AT&T, {PD}, {PD} | High Tech, {PD}, {PD} | NY, {PD}, {PD}
nil, {}, {PD} | nil, {}, {PD} | Banker's Trust, {PD}, {PD} | Finance, {PD}, {PD} | NY, {PD}, {PD}
`

// TableA5 is the Outer Natural Primary Join of A1 and A2: A4 with the key
// columns coalesced into ONAME.
const TableA5 = `
ONAME | IND | TRADE | STATE
Langley Castle, {AD}, {AD} | Hotel, {AD}, {AD} | nil, {}, {AD} | nil, {}, {AD}
IBM, {AD, PD}, {AD, PD} | High Tech, {AD}, {AD, PD} | High Tech, {PD}, {AD, PD} | NY, {PD}, {AD, PD}
MIT, {AD}, {AD} | Education, {AD}, {AD} | nil, {}, {AD} | nil, {}, {AD}
CitiCorp, {AD, PD}, {AD, PD} | Banking, {AD}, {AD, PD} | Banking, {PD}, {AD, PD} | NY, {PD}, {AD, PD}
Oracle, {AD, PD}, {AD, PD} | High Tech, {AD}, {AD, PD} | High Tech, {PD}, {AD, PD} | CA, {PD}, {AD, PD}
Ford, {AD}, {AD} | Automobile, {AD}, {AD} | nil, {}, {AD} | nil, {}, {AD}
DEC, {AD, PD}, {AD, PD} | High Tech, {AD}, {AD, PD} | High Tech, {PD}, {AD, PD} | MA, {PD}, {AD, PD}
BP, {AD}, {AD} | Energy, {AD}, {AD} | nil, {}, {AD} | nil, {}, {AD}
Genentech, {AD}, {AD} | High Tech, {AD}, {AD} | nil, {}, {AD} | nil, {}, {AD}
Apple, {PD}, {PD} | nil, {}, {PD} | High Tech, {PD}, {PD} | CA, {PD}, {PD}
AT&T, {PD}, {PD} | nil, {}, {PD} | High Tech, {PD}, {PD} | NY, {PD}, {PD}
Banker's Trust, {PD}, {PD} | nil, {}, {PD} | Finance, {PD}, {PD} | NY, {PD}, {PD}
`

// TableA6 is the Outer Natural Total Join of A1 and A2: A5 with IND and
// TRADE coalesced into INDUSTRY and STATE renamed to HEADQUARTERS.
const TableA6 = `
ONAME | INDUSTRY | HEADQUARTERS
Langley Castle, {AD}, {AD} | Hotel, {AD}, {AD} | nil, {}, {AD}
IBM, {AD, PD}, {AD, PD} | High Tech, {AD, PD}, {AD, PD} | NY, {PD}, {AD, PD}
MIT, {AD}, {AD} | Education, {AD}, {AD} | nil, {}, {AD}
CitiCorp, {AD, PD}, {AD, PD} | Banking, {AD, PD}, {AD, PD} | NY, {PD}, {AD, PD}
Oracle, {AD, PD}, {AD, PD} | High Tech, {AD, PD}, {AD, PD} | CA, {PD}, {AD, PD}
Ford, {AD}, {AD} | Automobile, {AD}, {AD} | nil, {}, {AD}
DEC, {AD, PD}, {AD, PD} | High Tech, {AD, PD}, {AD, PD} | MA, {PD}, {AD, PD}
BP, {AD}, {AD} | Energy, {AD}, {AD} | nil, {}, {AD}
Genentech, {AD}, {AD} | High Tech, {AD}, {AD} | nil, {}, {AD}
Apple, {PD}, {PD} | High Tech, {PD}, {PD} | CA, {PD}, {PD}
AT&T, {PD}, {PD} | High Tech, {PD}, {PD} | NY, {PD}, {PD}
Banker's Trust, {PD}, {PD} | Finance, {PD}, {PD} | NY, {PD}, {PD}
`

// TableA7 is the outer join of A6 and A3 on ONAME = FNAME. Note (see
// EXPERIMENTS.md § Paper fidelity): the paper prints this table before
// folding the join attributes' origins into the intermediate tags of the
// matched rows and folds them during the ONPJ instead; Table A4 — the
// corresponding earlier step — folds them immediately, as we do uniformly.
// A8 and A9 are unaffected.
const TableA7 = `
ONAME | INDUSTRY | HEADQUARTERS | FNAME | CEO | HQ
Langley Castle, {AD}, {AD, CD} | Hotel, {AD}, {AD, CD} | nil, {}, {AD, CD} | Langley Castle, {CD}, {AD, CD} | Stu Madnick, {CD}, {AD, CD} | MA, {CD}, {AD, CD}
IBM, {AD, PD}, {AD, PD, CD} | High Tech, {AD, PD}, {AD, PD, CD} | NY, {PD}, {AD, PD, CD} | IBM, {CD}, {AD, PD, CD} | John Ackers, {CD}, {AD, PD, CD} | NY, {CD}, {AD, PD, CD}
MIT, {AD}, {AD} | Education, {AD}, {AD} | nil, {}, {AD} | nil, {}, {AD} | nil, {}, {AD} | nil, {}, {AD}
CitiCorp, {AD, PD}, {AD, PD, CD} | Banking, {AD, PD}, {AD, PD, CD} | NY, {PD}, {AD, PD, CD} | CitiCorp, {CD}, {AD, PD, CD} | John Reed, {CD}, {AD, PD, CD} | NY, {CD}, {AD, PD, CD}
Oracle, {AD, PD}, {AD, PD, CD} | High Tech, {AD, PD}, {AD, PD, CD} | CA, {PD}, {AD, PD, CD} | Oracle, {CD}, {AD, PD, CD} | Lawrence Ellison, {CD}, {AD, PD, CD} | CA, {CD}, {AD, PD, CD}
Ford, {AD}, {AD, CD} | Automobile, {AD}, {AD, CD} | nil, {}, {AD, CD} | Ford, {CD}, {AD, CD} | Donald Peterson, {CD}, {AD, CD} | MI, {CD}, {AD, CD}
DEC, {AD, PD}, {AD, PD, CD} | High Tech, {AD, PD}, {AD, PD, CD} | MA, {PD}, {AD, PD, CD} | DEC, {CD}, {AD, PD, CD} | Ken Olsen, {CD}, {AD, PD, CD} | MA, {CD}, {AD, PD, CD}
BP, {AD}, {AD} | Energy, {AD}, {AD} | nil, {}, {AD} | nil, {}, {AD} | nil, {}, {AD} | nil, {}, {AD}
Genentech, {AD}, {AD, CD} | High Tech, {AD}, {AD, CD} | nil, {}, {AD, CD} | Genentech, {CD}, {AD, CD} | Bob Swanson, {CD}, {AD, CD} | CA, {CD}, {AD, CD}
Apple, {PD}, {PD, CD} | High Tech, {PD}, {PD, CD} | CA, {PD}, {PD, CD} | Apple, {CD}, {PD, CD} | John Sculley, {CD}, {PD, CD} | CA, {CD}, {PD, CD}
AT&T, {PD}, {PD, CD} | High Tech, {PD}, {PD, CD} | NY, {PD}, {PD, CD} | AT&T, {CD}, {PD, CD} | Robert Allen, {CD}, {PD, CD} | NY, {CD}, {PD, CD}
Banker's Trust, {PD}, {PD, CD} | Finance, {PD}, {PD, CD} | NY, {PD}, {PD, CD} | Banker's Trust, {CD}, {PD, CD} | Charles Sanford, {CD}, {PD, CD} | NY, {CD}, {PD, CD}
`

// TableA8 is the Outer Natural Primary Join of A6 and A3.
const TableA8 = `
ONAME | INDUSTRY | HEADQUARTERS | CEO | HQ
Langley Castle, {AD, CD}, {AD, CD} | Hotel, {AD}, {AD, CD} | nil, {}, {AD, CD} | Stu Madnick, {CD}, {AD, CD} | MA, {CD}, {AD, CD}
IBM, {AD, PD, CD}, {AD, PD, CD} | High Tech, {AD, PD}, {AD, PD, CD} | NY, {PD}, {AD, PD, CD} | John Ackers, {CD}, {AD, PD, CD} | NY, {CD}, {AD, PD, CD}
MIT, {AD}, {AD} | Education, {AD}, {AD} | nil, {}, {AD} | nil, {}, {AD} | nil, {}, {AD}
CitiCorp, {AD, PD, CD}, {AD, PD, CD} | Banking, {AD, PD}, {AD, PD, CD} | NY, {PD}, {AD, PD, CD} | John Reed, {CD}, {AD, PD, CD} | NY, {CD}, {AD, PD, CD}
Oracle, {AD, PD, CD}, {AD, PD, CD} | High Tech, {AD, PD}, {AD, PD, CD} | CA, {PD}, {AD, PD, CD} | Lawrence Ellison, {CD}, {AD, PD, CD} | CA, {CD}, {AD, PD, CD}
Ford, {AD, CD}, {AD, CD} | Automobile, {AD}, {AD, CD} | nil, {}, {AD, CD} | Donald Peterson, {CD}, {AD, CD} | MI, {CD}, {AD, CD}
DEC, {AD, PD, CD}, {AD, PD, CD} | High Tech, {AD, PD}, {AD, PD, CD} | MA, {PD}, {AD, PD, CD} | Ken Olsen, {CD}, {AD, PD, CD} | MA, {CD}, {AD, PD, CD}
BP, {AD}, {AD} | Energy, {AD}, {AD} | nil, {}, {AD} | nil, {}, {AD} | nil, {}, {AD}
Genentech, {AD, CD}, {AD, CD} | High Tech, {AD}, {AD, CD} | nil, {}, {AD, CD} | Bob Swanson, {CD}, {AD, CD} | CA, {CD}, {AD, CD}
Apple, {PD, CD}, {PD, CD} | High Tech, {PD}, {PD, CD} | CA, {PD}, {PD, CD} | John Sculley, {CD}, {PD, CD} | CA, {CD}, {PD, CD}
AT&T, {PD, CD}, {PD, CD} | High Tech, {PD}, {PD, CD} | NY, {PD}, {PD, CD} | Robert Allen, {CD}, {PD, CD} | NY, {CD}, {PD, CD}
Banker's Trust, {PD, CD}, {PD, CD} | Finance, {PD}, {PD, CD} | NY, {PD}, {PD, CD} | Charles Sanford, {CD}, {PD, CD} | NY, {CD}, {PD, CD}
`

// TableA9 is the Outer Natural Total Join of A6 and A3 — the merged
// PORGANIZATION relation, shown in the body of the paper as Table 6.
const TableA9 = Table6
