package sqlmini

// Statement AST. Only the forms appearing in the paper are modelled.

// Statement is any parsed SQL statement.
type Statement interface{ stmt() }

// CreateTable is CREATE TABLE name (col TYPE, ...).
type CreateTable struct {
	Name    string
	Columns []ColumnDef
}

// ColumnDef is one column declaration.
type ColumnDef struct {
	Name string
	Type string // INT, FLOAT, VARCHAR, RAW, GEOMETRY (sdo_geometry accepted)
}

// Insert is INSERT INTO name VALUES (v, ...). Geometry values are WKT
// strings.
type Insert struct {
	Table  string
	Values []Literal
}

// Literal is a parsed literal value.
type Literal struct {
	IsString bool
	Str      string
	Num      float64
	IsNum    bool
}

// CreateIndex is
//
//	CREATE INDEX name ON table(col) INDEXTYPE IS {RTREE|QUADTREE}
//	    [PARAMETERS('level=8 fanout=32')] [PARALLEL n]
type CreateIndex struct {
	Name     string
	Table    string
	Column   string
	Kind     string
	Params   map[string]string
	Parallel int
}

// Select covers the paper's query forms:
//
//	SELECT COUNT(*) | * | col, ... FROM <from> [WHERE <pred>]
//
// with <from> either a plain table or TABLE(SPATIAL_JOIN(...)).
type Select struct {
	Count   bool
	Columns []string // empty with Count or star
	Star    bool
	From    FromClause
	Where   *Predicate
}

// FromClause is the row source.
type FromClause struct {
	// Table is set for a base-table scan.
	Table string
	// Join is set for TABLE(SPATIAL_JOIN(...)).
	Join *SpatialJoinCall
}

// SpatialJoinCall mirrors the paper's
//
//	TABLE(spatial_join('tab1','col1','tab2','col2','mask'[,'algo=grid'][, parallel]))
type SpatialJoinCall struct {
	TableA, ColumnA string
	TableB, ColumnB string
	Mask            string
	Distance        float64
	// Parallel is the worker count the join is planned for (0 = every
	// core).
	Parallel int
	// Algo is the optional 'algo=...' hint: "nested"/"subtree"/"grid"
	// force a join path; empty or "auto" engages the cost model.
	Algo string
	// KeyA/KeyB are the optional 'keys=colA:colB' hint: the join then
	// exposes key1/key2 columns carrying those user columns' values
	// instead of the storage rowids. A cluster join needs this —
	// rowids are shard-local addresses, user keys are not.
	KeyA, KeyB string
}

// Predicate is one spatial operator in the WHERE clause:
//
//	SDO_RELATE(col, 'WKT', 'mask=anyinteract') = 'TRUE'
//	SDO_WITHIN_DISTANCE(col, 'WKT', 'distance=5') = 'TRUE'
//	SDO_NN(col, 'WKT', 'k=3') = 'TRUE'
type Predicate struct {
	Op       string // "relate", "withindistance" or "nearest"
	Column   string
	QueryWKT string
	Mask     string
	Distance float64
	K        int
}

// Delete is DELETE FROM t [WHERE <spatial predicate>].
type Delete struct {
	Table string
	Where *Predicate
}

// Update is UPDATE t SET col = literal, ... [WHERE <spatial predicate>].
// Geometry columns take WKT string literals.
type Update struct {
	Table string
	Sets  []SetClause
	Where *Predicate
}

// SetClause is one col = literal assignment.
type SetClause struct {
	Column string
	Value  Literal
}

func (CreateTable) stmt() {}
func (Insert) stmt()      {}
func (CreateIndex) stmt() {}
func (Select) stmt()      {}
func (Delete) stmt()      {}
func (Update) stmt()      {}
